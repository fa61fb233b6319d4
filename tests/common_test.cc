#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>

#include "common/env.h"
#include "common/exec_control.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "support/test_env.h"

namespace beas {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing table");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing table");
  EXPECT_EQ(st.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::ConformanceError("x").code(),
            StatusCode::kConformanceError);
  EXPECT_EQ(Status::NotCovered("x").code(), StatusCode::kNotCovered);
  EXPECT_EQ(Status::BudgetExceeded("x").code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
}

TEST(StatusTest, CorruptionIsDistinctFromIoError) {
  // The scrubber and recovery route on this distinction: kIoError means
  // the device misbehaved (retryable), kCorruption means the bytes are
  // durable but wrong (fall back / quarantine, never retry).
  Status corrupt = Status::Corruption("crc mismatch");
  EXPECT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.code(), StatusCode::kIoError);
  EXPECT_EQ(corrupt.ToString(), "Corruption: crc mismatch");
  EXPECT_FALSE(Status::Corruption("a") == Status::IoError("a"));
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    BEAS_RETURN_NOT_OK(Status::IoError("disk"));
    return Status::OK();  // unreachable
  };
  EXPECT_EQ(fails().code(), StatusCode::kIoError);
}

TEST(StatusTest, WireTokensAreStableAndDistinct) {
  const StatusCode all[] = {
      StatusCode::kOk,          StatusCode::kInvalidArgument,
      StatusCode::kNotFound,    StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,  StatusCode::kNotImplemented,
      StatusCode::kParseError,  StatusCode::kBindError,
      StatusCode::kTypeError,   StatusCode::kConformanceError,
      StatusCode::kNotCovered,  StatusCode::kBudgetExceeded,
      StatusCode::kIoError,     StatusCode::kInternal,
      StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
      StatusCode::kUnavailable, StatusCode::kCorruption,
  };
  std::set<std::string> tokens;
  for (StatusCode code : all) {
    std::string token = StatusCodeName(code);
    // UPPER_SNAKE, non-empty, and unique: clients dispatch on these.
    EXPECT_FALSE(token.empty());
    for (char c : token) {
      EXPECT_TRUE((c >= 'A' && c <= 'Z') || c == '_') << token;
    }
    EXPECT_TRUE(tokens.insert(token).second) << "duplicate token " << token;
  }
  // Pinned spellings (protocol constants — never change once shipped).
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotCovered), "NOT_COVERED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
}

TEST(StatusTest, HttpMappingFollowsRetryabilitySemantics) {
  // Client errors: 400 family, never retried by a well-behaved proxy.
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kParseError), 400);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kBindError), 400);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kTypeError), 400);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kOutOfRange), 400);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kNotFound), 404);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kAlreadyExists), 409);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kConformanceError), 409);
  // Coverage/budget verdicts are semantic refusals: 422.
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kNotCovered), 422);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kBudgetExceeded), 422);
  // Overload and deadline: the back-off codes.
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kDeadlineExceeded), 504);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kUnavailable), 503);
  // Server faults.
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kIoError), 500);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kInternal), 500);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kCorruption), 500);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kNotImplemented), 501);
  EXPECT_EQ(StatusCodeToHttp(StatusCode::kOk), 200);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("bad");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    BEAS_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 14);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(StringUtilTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("select", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("select x", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(12026000), "12,026,000");
  EXPECT_EQ(WithCommas(1234567890123ull), "1,234,567,890,123");
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformRealRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformReal(1.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(RngTest, ZipfInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Zipf(50), 50u);
  }
  EXPECT_EQ(rng.Zipf(0), 0u);
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(4);
  size_t low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Zipf(1000) < 10) ++low;
  }
  // The first 1% of ranks should receive far more than 1% of the mass.
  EXPECT_GT(low, 1000u);
}

TEST(RngTest, IdentLengthAndAlphabet) {
  Rng rng(5);
  std::string s = rng.Ident(12);
  EXPECT_EQ(s.size(), 12u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RngTest, PickReturnsElement) {
  Rng rng(6);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    int x = rng.Pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// ---------------------------------------------------------------------------
// HashString / HashBytes: the shared 64-bit string hash.
// ---------------------------------------------------------------------------

TEST(HashTest, StringHashAvalanche) {
  // Flipping any single input bit should flip about half the output bits
  // (murmur-style finalizer); a weak hash fails the per-flip band badly.
  const std::string base = "the quick brown fox jumps over 1234567890";
  uint64_t h0 = HashString(base);
  int total_flips = 0;
  int samples = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      std::string flipped = base;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << b));
      int flips = __builtin_popcountll(h0 ^ HashString(flipped));
      EXPECT_GE(flips, 10) << "byte " << i << " bit " << b;
      EXPECT_LE(flips, 54) << "byte " << i << " bit " << b;
      total_flips += flips;
      ++samples;
    }
  }
  double avg = static_cast<double>(total_flips) / samples;
  EXPECT_NEAR(avg, 32.0, 3.0);
}

TEST(HashTest, StringHashCollisionSanity) {
  // Structured key families (shared prefixes, numeric suffixes) must not
  // collide in 64 bits at this scale.
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 20000; ++i) {
    seen.insert(HashString("key_" + std::to_string(i)));
  }
  for (int i = 0; i < 2000; ++i) {
    seen.insert(HashString(std::string(i % 40, 'a') + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 22000u);
  // Length-sensitive: a trailing NUL byte is not the empty string.
  EXPECT_NE(HashString(""), HashString(std::string(1, '\0')));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abc", 2));
}

// ---------------------------------------------------------------------------
// TaskPool.
// ---------------------------------------------------------------------------

TEST(TaskPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  TaskPool pool(3);
  std::vector<std::atomic<int>> counts(997);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(counts.size(),
                   [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(TaskPoolTest, ParallelForWorksWithoutWorkers) {
  TaskPool pool(0);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(TaskPoolTest, ParallelForCompletesWhileWorkersAreBusy) {
  // Workers blocked on long Submit tasks: the caller must drain the range
  // itself (no deadlock).
  TaskPool pool(2);
  std::mutex m;
  std::unique_lock<std::mutex> hold(m);
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&m] { std::lock_guard<std::mutex> wait(m); });
  }
  std::atomic<int> ran{0};
  pool.ParallelFor(50, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
  hold.unlock();
}

TEST(TaskPoolTest, SubmitRunsTasks) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(2);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 20);
}

// ---------------------------------------------------------------------------
// Test sleep points.
// ---------------------------------------------------------------------------

/// Arms a spec for one scope, disarming on exit.
struct FailGuard {
  explicit FailGuard(const char* spec) { fail::ArmForTesting(spec); }
  ~FailGuard() { fail::ArmForTesting(nullptr); }
};

TEST(FailPointTest, DisarmedPointDoesNotSleep) {
  fail::ArmForTesting(nullptr);
  EXPECT_FALSE(fail::Point("anything"));
}

TEST(FailPointTest, SleepFiresOnceOnFirstHitByDefault) {
  FailGuard guard("site_a=sleep(1)");
  EXPECT_TRUE(fail::Point("site_a"));
  // Nth trigger (default N=1): later hits pass.
  EXPECT_FALSE(fail::Point("site_a"));
  // Other sites are unaffected.
  EXPECT_FALSE(fail::Point("site_b"));
}

TEST(FailPointTest, NthTriggerSkipsEarlierHits) {
  FailGuard guard("site_a=sleep(1)@3");
  EXPECT_FALSE(fail::Point("site_a"));
  EXPECT_FALSE(fail::Point("site_a"));
  EXPECT_TRUE(fail::Point("site_a"));
  EXPECT_FALSE(fail::Point("site_a"));
}

TEST(FailPointTest, EveryTriggerFiresOnEveryHit) {
  FailGuard guard("site_a=sleep(1)@*");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fail::Point("site_a")) << i;
  }
}

TEST(FailPointTest, SleepActionDelaysThenReturns) {
  FailGuard guard("site_a=sleep(30)@*");
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fail::Point("site_a"));
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
}

TEST(FailPointTest, MultipleEntriesAndMalformedOnesAreDropped) {
  // Malformed entries (no site, unknown or non-sleep actions) must be
  // ignored, valid ones honored.
  FailGuard guard(
      "=sleep(1);site_a=nosuchaction;site_b=sleep(1);;site_c=error@*;"
      "site_d=crash");
  EXPECT_FALSE(fail::Point("site_a"));
  EXPECT_TRUE(fail::Point("site_b"));
  EXPECT_FALSE(fail::Point("site_c"));
  EXPECT_FALSE(fail::Point("site_d"));
}

// ---------------------------------------------------------------------------
// ExecControl.
// ---------------------------------------------------------------------------

TEST(ExecControlTest, DefaultIsInactiveAndNeverExpires) {
  ExecControl control;
  EXPECT_FALSE(control.active());
  EXPECT_FALSE(control.Expired());
}

TEST(ExecControlTest, CancelTokenExpiresImmediately) {
  std::atomic<bool> cancel{false};
  ExecControl control;
  control.cancel = &cancel;
  EXPECT_TRUE(control.active());
  EXPECT_FALSE(control.Expired());
  cancel.store(true);
  EXPECT_TRUE(control.Expired());
}

TEST(ExecControlTest, DeadlineExpiresAfterTimeout) {
  ExecControl control = ExecControl::After(std::chrono::milliseconds(0));
  EXPECT_TRUE(control.active());
  EXPECT_TRUE(control.Expired());  // zero timeout: already past
  ExecControl future = ExecControl::After(std::chrono::hours(1));
  EXPECT_FALSE(future.Expired());
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv: the crash-consistency harness substrate. These pin
// the storage model itself — what survives a power cut, what a SyncDir
// buys, and the deterministic corruption hooks — so harness failures
// implicate the durability protocol, not the simulator.
// ---------------------------------------------------------------------------

std::string ReadWhole(Env* env, const std::string& path) {
  auto file = env->NewRandomAccessFile(path);
  if (!file.ok()) return "<" + file.status().ToString() + ">";
  return std::string(file.ValueOrDie()->data(), file.ValueOrDie()->size());
}

TEST(FaultEnvTest, SyncedBytesSurviveACutUnsyncedBytesNeedNot) {
  FaultInjectingEnv env(7);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  ASSERT_TRUE(env.SyncDir("/").ok());  // persist the directory itself
  auto f = env.NewWritableFile("/d/f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(env.SyncDir("/d").ok());  // persist the file's entry
  ASSERT_TRUE(f.ValueOrDie()->Append("acked", 5).ok());
  ASSERT_TRUE(f.ValueOrDie()->Sync().ok());
  ASSERT_TRUE(f.ValueOrDie()->Append("-tail", 5).ok());  // never synced

  env.CutNow(FaultInjectingEnv::TearPolicy::kDropAll);
  env.InstallCrashImage();
  EXPECT_EQ(ReadWhole(&env, "/d/f"), "acked");

  // Same protocol under kKeepAll: every written byte reached the platter.
  FaultInjectingEnv keep(7);
  ASSERT_TRUE(keep.CreateDir("/d").ok());
  ASSERT_TRUE(keep.SyncDir("/").ok());
  auto g = keep.NewWritableFile("/d/f");
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(keep.SyncDir("/d").ok());
  ASSERT_TRUE(g.ValueOrDie()->Append("acked", 5).ok());
  ASSERT_TRUE(g.ValueOrDie()->Sync().ok());
  ASSERT_TRUE(g.ValueOrDie()->Append("-tail", 5).ok());
  keep.CutNow(FaultInjectingEnv::TearPolicy::kKeepAll);
  keep.InstallCrashImage();
  EXPECT_EQ(ReadWhole(&keep, "/d/f"), "acked-tail");
}

TEST(FaultEnvTest, UnsyncedDirectoryEntryVanishesAtTheCut) {
  FaultInjectingEnv env(11);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  ASSERT_TRUE(env.SyncDir("/").ok());
  auto f = env.NewWritableFile("/d/f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.ValueOrDie()->Append("x", 1).ok());
  ASSERT_TRUE(f.ValueOrDie()->Sync().ok());
  // fsync(file) without fsync(dir): the bytes are durable but the name
  // is not — the file as a whole may vanish. This is the exact window
  // InitWalFile closes with SyncParentDir. (kDropAll: nothing unsynced
  // reaches the platter; kKeepAll would keep the entry.)
  env.CutNow(FaultInjectingEnv::TearPolicy::kDropAll);
  env.InstallCrashImage();
  EXPECT_FALSE(env.FileExists("/d/f"));
}

TEST(FaultEnvTest, UnsyncedRenameRevertsToTheDisplacedFile) {
  FaultInjectingEnv env(13);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  ASSERT_TRUE(env.SyncDir("/").ok());
  ASSERT_TRUE(env.WriteFileAtomic("/d/MANIFEST", "old").ok());
  // WriteFileAtomic syncs the directory, so "old" is fully durable.

  // Now a raw rename with NO directory sync: crash may serve either side.
  auto tmp = env.NewWritableFile("/d/MANIFEST.tmp");
  ASSERT_TRUE(tmp.ok());
  ASSERT_TRUE(tmp.ValueOrDie()->Append("new", 3).ok());
  ASSERT_TRUE(tmp.ValueOrDie()->Sync().ok());
  ASSERT_TRUE(env.RenameFile("/d/MANIFEST.tmp", "/d/MANIFEST").ok());
  env.CutNow(FaultInjectingEnv::TearPolicy::kDropAll);
  env.InstallCrashImage();
  EXPECT_EQ(ReadWhole(&env, "/d/MANIFEST"), "old")
      << "an unsynced rename must be allowed to revert";

  // And the atomic helper (rename + dir sync) must always serve "new".
  FaultInjectingEnv atomic_env(13);
  ASSERT_TRUE(atomic_env.CreateDir("/d").ok());
  ASSERT_TRUE(atomic_env.SyncDir("/").ok());
  ASSERT_TRUE(atomic_env.WriteFileAtomic("/d/MANIFEST", "old").ok());
  ASSERT_TRUE(atomic_env.WriteFileAtomic("/d/MANIFEST", "new").ok());
  atomic_env.CutNow(FaultInjectingEnv::TearPolicy::kDropAll);
  atomic_env.InstallCrashImage();
  EXPECT_EQ(ReadWhole(&atomic_env, "/d/MANIFEST"), "new");
}

TEST(FaultEnvTest, ScheduledCutTearsTheCrossingAppendAtSectors) {
  // 3 KiB synced, then 3 KiB unsynced with a cut scheduled 100 bytes in:
  // the crash image must keep the synced prefix bit-identical and may
  // keep any subset of the unsynced *sectors* — never other lengths.
  FaultInjectingEnv env(17);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  ASSERT_TRUE(env.SyncDir("/").ok());
  auto f = env.NewWritableFile("/d/f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(env.SyncDir("/d").ok());
  std::string synced(3072, 'a');
  ASSERT_TRUE(f.ValueOrDie()->Append(synced.data(), synced.size()).ok());
  ASSERT_TRUE(f.ValueOrDie()->Sync().ok());

  env.ScheduleCutAfterBytes(100);
  EXPECT_FALSE(env.CutTriggered());
  std::string tail(3072, 'b');
  ASSERT_TRUE(f.ValueOrDie()->Append(tail.data(), tail.size()).ok());
  EXPECT_TRUE(env.CutTriggered());
  env.InstallCrashImage();

  std::string got = ReadWhole(&env, "/d/f");
  ASSERT_GE(got.size(), synced.size());
  EXPECT_EQ(got.substr(0, synced.size()), synced);
  // Whatever tail survived is sector-granular relative to the file size.
  size_t extra = got.size() - synced.size();
  EXPECT_TRUE(extra % FaultInjectingEnv::kSectorBytes == 0 ||
              got.size() == synced.size() + 100 ||
              got.size() == synced.size() + tail.size())
      << "file landed on a non-sector, non-endpoint length " << got.size();
}

TEST(FaultEnvTest, FlipBitAndShortReadAreCountedFaults) {
  FaultInjectingEnv env(19);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  ASSERT_TRUE(env.WriteFileAtomic("/d/f", "hello world").ok());
  EXPECT_EQ(env.injected_faults(), 0u);

  ASSERT_TRUE(env.FlipBit("/d/f", 0, 0).ok());
  EXPECT_EQ(env.injected_faults(), 1u);
  std::string flipped = ReadWhole(&env, "/d/f");
  EXPECT_NE(flipped, "hello world");
  ASSERT_TRUE(env.FlipBit("/d/f", 0, 0).ok());  // flip back
  EXPECT_EQ(ReadWhole(&env, "/d/f"), "hello world");
  EXPECT_FALSE(env.FlipBit("/d/missing", 0, 0).ok());

  env.ArmShortRead("/d/f");
  std::string short_view = ReadWhole(&env, "/d/f");
  EXPECT_LT(short_view.size(), std::string("hello world").size());
  EXPECT_GE(env.injected_faults(), 3u);
  // One-shot: the following read sees the whole file again.
  EXPECT_EQ(ReadWhole(&env, "/d/f"), "hello world");
}

}  // namespace
}  // namespace beas
