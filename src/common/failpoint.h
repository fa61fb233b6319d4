#ifndef BEAS_COMMON_FAILPOINT_H_
#define BEAS_COMMON_FAILPOINT_H_

namespace beas {
namespace fail {

/// \brief Test sleep points: deterministic windows for timing tests.
///
/// Production code marks a step boundary with `fail::Point("site")`.
/// Normally that is one emptiness check. When a test has armed the site,
/// the point blocks for the armed number of milliseconds, which forces a
/// deadline, cancellation or backpressure window open at a known place.
/// Two sites exist: `exec_step` (each fetch step of a bounded plan) and
/// `net_write_response` (each wire response write).
///
/// I/O faults and crashes are not injected here: durability tests fail,
/// cut or tear I/O through the Env seam (`tests/support/test_env.h`).
///
/// Returns whether the point slept.
bool Point(const char* site);

/// Replaces the armed configuration (null or "" disarms everything) and
/// resets every hit counter. `spec` is a semicolon-separated list of
/// `site=sleep(MS)[@trigger]` entries:
///
///   "exec_step=sleep(20)@*;net_write_response=sleep(10)@3"
///
/// Triggers: `@N` sleeps once, on the N-th hit (1-based; the default is
/// `@1`); `@*` sleeps on every hit. Malformed entries are dropped. Arm
/// only while no thread is inside a Point() call.
void ArmForTesting(const char* spec);

}  // namespace fail
}  // namespace beas

#endif  // BEAS_COMMON_FAILPOINT_H_
