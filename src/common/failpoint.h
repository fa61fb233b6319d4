#ifndef BEAS_COMMON_FAILPOINT_H_
#define BEAS_COMMON_FAILPOINT_H_

#include "common/status.h"

namespace beas {
namespace fail {

/// \brief General fault-injection fail points (grown out of the
/// durability layer's crash-only kill points; see README "Resilience").
///
/// Production code marks an interesting protocol boundary with
///
///     Status injected = fail::Point("site_name");
///     if (!injected.ok()) ...   // treat like the real failure
///
/// Normally Point() is a cheap no-op returning OK. When a site is armed —
/// via the environment or ArmForTesting() — the armed *action* fires at
/// the armed *trigger*:
///
///   crash        _exit(kCrashExitCode): no destructors, no flushes,
///                exactly like a kill — for crash-recovery testing.
///   error        returns an injected IoError ("injected failure at
///                <site>") the caller must handle like a real IO fault.
///   error(enospc) same, with a strerror(ENOSPC)-shaped message ("No
///                space left on device"), for disk-full simulations.
///   sleep(MS)    blocks MS milliseconds, then returns OK — for forcing
///                deadline/cancellation windows open deterministically.
///   off          never fires (placeholder while editing specs).
///
/// ## Env syntax (`BEAS_FAIL_POINTS`)
///
/// Semicolon-separated entries, each `site=action[@trigger]`:
///
///   BEAS_FAIL_POINTS="wal_append=error@2;ckpt_write=error(enospc)"
///
/// Triggers: `@N` fires exactly once, on the N-th hit (1-based; the
/// default is `@1`); `@*` fires on every hit; `@pP` fires on each hit
/// with probability P in [0,1] (deterministic per-process LCG stream, so
/// a seed-free sweep is still reproducible).
///
/// The variable is parsed once per process, at the first Point() call.
/// A fork()ed test child inherits the parsed config; the harness re-arms
/// with ArmForTesting() right after fork instead.
Status Point(const char* site);

/// Exit code used by injected crashes, distinguishable from aborts and
/// clean exits in a test parent's waitpid status.
constexpr int kCrashExitCode = 42;

/// Replaces the armed configuration in-process, `spec` in the
/// BEAS_FAIL_POINTS syntax above (null or "" disarms everything). Resets
/// every hit counter.
void ArmForTesting(const char* spec);

}  // namespace fail
}  // namespace beas

#endif  // BEAS_COMMON_FAILPOINT_H_
