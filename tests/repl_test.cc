// Replication suite (`repl` label; CI runs it under asan+ubsan and
// tsan). Covers the sharded replicated store end to end:
//
//   1. Placement: the seeded consistent-hash ring is deterministic
//      across store instances and spreads keys over every shard.
//   2. The quorum commit path: follower convergence, channel drops and
//      corrupted batches (follower_rejects via the shared frame scan),
//      lag + catch-up accounting, quorum failures stepping leaders down.
//   3. The failover laws, in-process and across a durable restart:
//      zero lost acknowledged writes, unacknowledged transactions stay
//      invisible, and the whole drill is byte-identical when rerun at
//      the same seed (state hash, stats, election terms).
//   4. Replica checkpoints: the marker ships to a lagging follower inside
//      its catch-up suffix, every replica reopens at the same LSNs, and
//      the kill-leader drill holds its laws across a checkpoint.
//   5. The integrations: HopsFS metadata over the sharded store with
//      per-shard inode-id ranges, and the /shardz + Prometheus admin
//      surface.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/string_util.h"
#include "dfs/hopsfs.h"
#include "kv/meta_store.h"
#include "repl/admin_hooks.h"
#include "repl/replicated_store.h"

namespace exearth::repl {
namespace {

using common::FaultInjector;
using common::FaultRule;
using common::Status;
using common::StatusCode;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/eea_repl_test_XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// FNV-1a over the sorted full contents — the recovered-state fingerprint
// the determinism assertions compare.
uint64_t ContentHash(const kv::MetaStore& store) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  for (const auto& [key, value] : store.ScanPrefix("")) {
    mix(key);
    mix(value);
  }
  return h;
}

// Every test runs against a clean process-wide fault injector.
class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Default().Reset();
    FaultInjector::Default().set_seed(42);
  }
  void TearDown() override { FaultInjector::Default().Reset(); }
};

std::unique_ptr<ReplicatedKvStore> OpenOrDie(const ReplOptions& options) {
  auto store = ReplicatedKvStore::Open(options);
  EXPECT_TRUE(store.ok()) << store.status().message();
  return std::move(*store);
}

TEST_F(ReplTest, RingPlacementIsDeterministicAndCoversAllShards) {
  ReplOptions opt;
  opt.num_shards = 4;
  opt.followers_per_shard = 0;
  opt.write_quorum = 0;
  auto a = OpenOrDie(opt);
  auto b = OpenOrDie(opt);
  std::set<int> hit;
  for (int i = 0; i < 512; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const int shard = a->ShardOf(key);
    EXPECT_EQ(shard, b->ShardOf(key)) << key;
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u) << "512 keys left a shard empty";
}

TEST_F(ReplTest, PutGetDeleteScanAcrossShards) {
  ReplOptions opt;
  opt.num_shards = 4;
  opt.followers_per_shard = 2;
  auto store = OpenOrDie(opt);
  for (int i = 0; i < 100; ++i) {
    const std::string k = common::StrFormat("row%03d", i);
    ASSERT_TRUE(store->Put(k, "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(store->Size(), 100u);
  auto got = store->Get("row042");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v42");
  // The merged scan is globally sorted despite per-shard storage.
  auto rows = store->ScanPrefix("row");
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first);
  }
  auto limited = store->ScanPrefix("row", 7);
  EXPECT_EQ(limited.size(), 7u);
  ASSERT_TRUE(store->Delete("row042").ok());
  EXPECT_TRUE(store->Get("row042").status().IsNotFound());
  EXPECT_EQ(store->Size(), 99u);
  EXPECT_TRUE(store->CheckReady().ok());
  EXPECT_EQ(store->repl_stats().commits_acked, 101u);
  EXPECT_EQ(store->repl_stats().elections, 0u);
}

TEST_F(ReplTest, TransactionsAreAtomicAcrossShards) {
  ReplOptions opt;
  opt.num_shards = 4;
  opt.followers_per_shard = 1;
  auto store = OpenOrDie(opt);
  auto txn = store->Begin();
  for (int i = 0; i < 16; ++i) {
    const std::string k = common::StrFormat("multi%02d", i);
    ASSERT_TRUE(txn->Put(k, "x").ok());
    // Read-your-writes inside the transaction.
    auto mine = txn->Get(k);
    ASSERT_TRUE(mine.ok());
    EXPECT_EQ(*mine, "x");
  }
  auto exists = txn->Exists("multi00");
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(store->ScanPrefix("multi").size(), 16u);

  auto aborted = store->Begin();
  ASSERT_TRUE(aborted->Put("multi99", "x").ok());
  aborted->Abort();
  EXPECT_TRUE(store->Get("multi99").status().IsNotFound());
}

TEST_F(ReplTest, FollowersConvergeWithLeader) {
  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = 2;
  auto store = OpenOrDie(opt);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store->Put("c" + std::to_string(i), "v").ok());
  }
  for (int s = 0; s < 2; ++s) {
    auto leader_rows = store->ScanReplicaPrefix(s, 0, "");
    ASSERT_TRUE(leader_rows.ok());
    for (int r = 1; r < 3; ++r) {
      auto rows = store->ScanReplicaPrefix(s, r, "");
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(*rows, *leader_rows) << "shard " << s << " replica " << r;
    }
  }
  for (const ShardStatus& shard : store->StatusSnapshot()) {
    EXPECT_EQ(shard.leader, 0);
    for (const ReplicaStatus& r : shard.replicas) {
      EXPECT_EQ(r.lag_frames, 0u);
      EXPECT_EQ(r.durable_lsn, r.applied_lsn);
    }
  }
}

TEST_F(ReplTest, DurableStoreRecoversAcrossReopen) {
  TempDir dir;
  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = 1;
  opt.data_dir = dir.path();
  uint64_t hash = 0;
  {
    auto store = OpenOrDie(opt);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          store->Put(common::StrFormat("d%03d", i), "payload" +
                     std::to_string(i)).ok());
    }
    ASSERT_TRUE(store->Delete("d005").ok());
    hash = ContentHash(*store);
  }
  auto store = OpenOrDie(opt);
  EXPECT_EQ(store->Size(), 39u);
  EXPECT_TRUE(store->Get("d005").status().IsNotFound());
  auto got = store->Get("d017");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "payload17");
  EXPECT_EQ(ContentHash(*store), hash);
  // Recovery leader selection is not a failover election.
  EXPECT_EQ(store->repl_stats().elections, 0u);
}

TEST_F(ReplTest, ChannelDropCausesLagThenCatchup) {
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  auto store = OpenOrDie(opt);
  // Drop the first shipped batch (follower 1 of commit #1); follower 2
  // still acks, so the commit is acknowledged.
  FaultRule rule;
  rule.fail_calls = {1};
  FaultInjector::Default().Program("repl.channel.send", rule);
  ASSERT_TRUE(store->Put("k1", "v1").ok());
  ReplStats stats = store->repl_stats();
  EXPECT_EQ(stats.commits_acked, 1u);
  EXPECT_EQ(stats.channel_drops, 1u);
  auto snap = store->StatusSnapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].replicas[1].lag_frames, 2u);  // put + commit marker
  EXPECT_EQ(snap[0].replicas[2].lag_frames, 0u);
  // The lagging follower misses k1 entirely.
  EXPECT_TRUE(store->ReadReplica(0, 1, "k1").status().IsNotFound());
  // The next commit ships the whole missing suffix: catch-up.
  ASSERT_TRUE(store->Put("k2", "v2").ok());
  stats = store->repl_stats();
  EXPECT_EQ(stats.catchup_records, 2u);
  snap = store->StatusSnapshot();
  for (const ReplicaStatus& r : snap[0].replicas) {
    EXPECT_EQ(r.lag_frames, 0u);
  }
  auto caught_up = store->ReadReplica(0, 1, "k1");
  ASSERT_TRUE(caught_up.ok());
  EXPECT_EQ(*caught_up, "v1");
}

TEST_F(ReplTest, ShardLogHoldsOnlyWhatALiveFollowerLacks) {
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  auto store = OpenOrDie(opt);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->Put(common::StrFormat("a%02d", i), "v").ok());
  }
  EXPECT_EQ(store->StatusSnapshot()[0].log_records, 0u);  // caught up
  // Each commit ships to follower 1, then follower 2: drop follower 1's
  // batch of three commits (a put and a commit marker each).
  FaultRule rule;
  rule.fail_calls = {1, 3, 5};
  FaultInjector::Default().Program("repl.channel.send", rule);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->Put(common::StrFormat("b%02d", i), "v").ok());
  }
  ShardStatus shard = store->StatusSnapshot()[0];
  EXPECT_EQ(shard.replicas[1].lag_frames, 6u);
  EXPECT_EQ(shard.log_records, 6u);
  // The next commit catches follower 1 up; nothing is left to hold.
  ASSERT_TRUE(store->Put("c", "v").ok());
  EXPECT_EQ(store->StatusSnapshot()[0].log_records, 0u);
  EXPECT_EQ(store->repl_stats().catchup_records, 6u);
  EXPECT_EQ(*store->ReadReplica(0, 1, "b02"), "v");

  // With no follower there is nobody to catch up.
  ReplOptions single;
  single.followers_per_shard = 0;
  single.write_quorum = 0;
  auto alone = OpenOrDie(single);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(alone->Put(common::StrFormat("a%02d", i), "v").ok());
  }
  EXPECT_EQ(alone->StatusSnapshot()[0].log_records, 0u);
}

TEST_F(ReplTest, CorruptedChannelBatchIsRejectedByFrameScan) {
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  auto store = OpenOrDie(opt);
  // An `io` channel fault delivers corrupted bytes: the follower's
  // Wal::ValidatePrefix scan must reject the whole batch (no partial
  // or garbage apply), which counts a follower_reject, not a drop.
  FaultRule rule;
  rule.fail_calls = {1};
  rule.code = StatusCode::kIOError;
  FaultInjector::Default().Program("repl.channel.send", rule);
  ASSERT_TRUE(store->Put("k1", "v1").ok());
  ReplStats stats = store->repl_stats();
  EXPECT_EQ(stats.commits_acked, 1u);
  EXPECT_EQ(stats.follower_rejects, 1u);
  EXPECT_EQ(stats.channel_drops, 0u);
  EXPECT_TRUE(store->ReadReplica(0, 1, "k1").status().IsNotFound());
  // Clean channel again: the reject heals exactly like a drop.
  ASSERT_TRUE(store->Put("k2", "v2").ok());
  auto healed = store->ReadReplica(0, 1, "k1");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, "v1");
}

TEST_F(ReplTest, QuorumFailureRefusesCommitAndStepsLeaderDown) {
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 1;
  opt.write_quorum = 1;
  auto store = OpenOrDie(opt);
  ASSERT_TRUE(store->Put("pre", "v").ok());
  // Every batch to the only follower is dropped: no quorum is possible.
  FaultRule rule;
  rule.probability = 1.0;
  FaultInjector::Default().Program("repl.channel.send", rule);
  Status s = store->Put("k1", "v1");
  EXPECT_TRUE(s.IsUnavailable()) << s.message();
  ReplStats stats = store->repl_stats();
  EXPECT_EQ(stats.quorum_failures, 1u);
  EXPECT_GE(stats.elections, 1u);
  // The unacknowledged write is invisible on the surviving replica.
  EXPECT_TRUE(store->Get("k1").status().IsNotFound());
  auto pre = store->Get("pre");
  ASSERT_TRUE(pre.ok());
  // The shard is now below quorum (one live replica, zero followers).
  EXPECT_FALSE(store->CheckReady().ok());
}

TEST_F(ReplTest, FollowerApplyLagDoesNotVoidAckAndPromotionApplies) {
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 1;
  opt.write_quorum = 1;
  auto store = OpenOrDie(opt);
  // The follower durably appends (the ack) but its in-memory apply is
  // delayed: replication lag in applied_lsn only.
  FaultRule rule;
  rule.fail_calls = {1};
  FaultInjector::Default().Program("repl.follower.apply", rule);
  ASSERT_TRUE(store->Put("k1", "v1").ok());
  auto snap = store->StatusSnapshot();
  EXPECT_EQ(snap[0].replicas[1].durable_lsn, 2u);
  EXPECT_EQ(snap[0].replicas[1].applied_lsn, 0u);
  EXPECT_EQ(snap[0].replicas[1].lag_frames, 0u);  // durably caught up
  EXPECT_TRUE(store->ReadReplica(0, 1, "k1").status().IsNotFound());
  // Promotion drains the apply queue: the acked write is served by the
  // new leader even though it was never applied as a follower.
  store->CrashReplica(0, 0);
  auto got = store->Get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v1");
  EXPECT_EQ(store->repl_stats().elections, 1u);
}

TEST_F(ReplTest, CrashingAFollowerKeepsServingCrashingAllGoesDark) {
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  auto store = OpenOrDie(opt);
  ASSERT_TRUE(store->Put("k", "v").ok());
  store->CrashReplica(0, 2);
  ASSERT_TRUE(store->Put("k2", "v").ok());  // one follower is enough
  EXPECT_TRUE(store->ReadReplica(0, 2, "k").status().IsUnavailable());
  store->CrashReplica(0, 1);
  // Quorum needs one follower ack; none are left.
  EXPECT_TRUE(store->Put("k3", "v").IsUnavailable());
  store->CrashReplica(0, 0);
  EXPECT_TRUE(store->Get("k").status().IsUnavailable());
  EXPECT_TRUE(store->Begin()->Put("k4", "v").IsUnavailable());
}

// The deterministic kill-the-leader drill: one full run of the chaos
// scenario the CI determinism gate replays twice. Returns everything
// the laws quantify over.
struct DrillOutcome {
  std::vector<std::string> acked;    // keys whose commit returned OK
  std::vector<std::string> refused;  // keys refused Unavailable mid-crash
  uint64_t recovered_hash = 0;       // state hash after restart
  ReplStats stats;                   // counters before the restart
  std::vector<uint64_t> election_terms;
  uint64_t recovered_rows = 0;  // image rows loaded at the restart
  int down_after_restart = 0;   // replicas reported down after it
};

// `checkpoint_before` >= 0 checkpoints every shard before that put.
DrillOutcome RunLeaderKillDrill(const std::string& dir, uint64_t seed,
                                uint64_t crash_at_commit,
                                int checkpoint_before = -1) {
  FaultInjector::Default().Reset();
  FaultInjector::Default().set_seed(seed);
  FaultRule rule;
  rule.fail_calls = {crash_at_commit};
  FaultInjector::Default().Program("repl.leader.crash", rule);

  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  opt.data_dir = dir;
  opt.election_seed = seed;
  DrillOutcome out;
  {
    auto store = OpenOrDie(opt);
    for (int i = 0; i < 40; ++i) {
      if (i == checkpoint_before) {
        const Status ck = store->Checkpoint();
        EXPECT_TRUE(ck.ok()) << ck.ToString();
      }
      const std::string key = common::StrFormat("drill%03d", i);
      Status s = store->Put(key, "value-" + std::to_string(i));
      if (s.ok()) {
        out.acked.push_back(key);
      } else {
        EXPECT_TRUE(s.IsUnavailable()) << s.message();
        out.refused.push_back(key);
      }
    }
    out.stats = store->repl_stats();
    for (const ShardStatus& shard : store->StatusSnapshot()) {
      out.election_terms.push_back(shard.election_term);
      // The crashed node's files die with it: permanent node loss.
      // Remove them before the restart below, like the failover drill in
      // bench_e19 (otherwise recovery would resurrect the dead leader's
      // unshipped — unacknowledged — tail).
      for (const ReplicaStatus& r : shard.replicas) {
        if (!r.down) continue;
        for (const char* ext : {"wal", "pages"}) {
          std::filesystem::remove(common::StrFormat(
              "%s/shard%03d_replica%02d.%s", dir.c_str(), r.shard,
              r.replica, ext));
        }
      }
    }
  }
  FaultInjector::Default().Reset();
  auto recovered = OpenOrDie(opt);
  for (const std::string& key : out.acked) {
    EXPECT_TRUE(recovered->Get(key).ok())
        << key << ": acknowledged write lost across failover + restart";
  }
  for (const std::string& key : out.refused) {
    EXPECT_TRUE(recovered->Get(key).status().IsNotFound())
        << key << ": unacknowledged write became visible";
  }
  out.recovered_hash = ContentHash(*recovered);
  for (const ShardStatus& shard : recovered->StatusSnapshot()) {
    for (const ReplicaStatus& r : shard.replicas) {
      out.recovered_rows += r.recovered_rows;
      if (r.down) ++out.down_after_restart;
    }
  }
  return out;
}

TEST_F(ReplTest, LeaderKillDrillLosesNoAckedWritesAndIsDeterministic) {
  const uint64_t kSeed = 42;
  const uint64_t kCrashAtCommit = 17;
  TempDir dir_a;
  DrillOutcome a = RunLeaderKillDrill(dir_a.path(), kSeed, kCrashAtCommit);
  // The injected kill really happened, cost exactly one commit, and
  // triggered exactly one failover.
  EXPECT_EQ(a.refused.size(), 1u);
  EXPECT_EQ(a.acked.size(), 39u);
  EXPECT_EQ(a.stats.leader_crashes, 1u);
  EXPECT_EQ(a.stats.elections, 1u);
  EXPECT_EQ(a.stats.commits_acked, 39u);

  // Byte-identical rerun at the same seed: same acks, same refusals,
  // same recovered state, same counters, same election terms.
  TempDir dir_b;
  DrillOutcome b = RunLeaderKillDrill(dir_b.path(), kSeed, kCrashAtCommit);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.recovered_hash, b.recovered_hash);
  EXPECT_EQ(a.election_terms, b.election_terms);
  EXPECT_EQ(a.stats.commits_acked, b.stats.commits_acked);
  EXPECT_EQ(a.stats.quorum_failures, b.stats.quorum_failures);
  EXPECT_EQ(a.stats.elections, b.stats.elections);
  EXPECT_EQ(a.stats.leader_crashes, b.stats.leader_crashes);
  EXPECT_EQ(a.stats.channel_drops, b.stats.channel_drops);
  EXPECT_EQ(a.stats.follower_rejects, b.stats.follower_rejects);
  EXPECT_EQ(a.stats.catchup_records, b.stats.catchup_records);
  EXPECT_EQ(a.stats.frames_shipped, b.stats.frames_shipped);

  // A different seed still loses nothing but stamps different terms.
  TempDir dir_c;
  DrillOutcome c = RunLeaderKillDrill(dir_c.path(), kSeed + 1,
                                      kCrashAtCommit);
  EXPECT_EQ(c.stats.leader_crashes, 1u);
  EXPECT_NE(a.election_terms, c.election_terms);
}

TEST_F(ReplTest, LeaderKillDrillAfterCheckpointLosesNoAckedWrites) {
  TempDir dir;
  const DrillOutcome out = RunLeaderKillDrill(dir.path(), 42, 17,
                                              /*checkpoint_before=*/10);
  EXPECT_EQ(out.refused.size(), 1u);
  EXPECT_EQ(out.acked.size(), 39u);
  EXPECT_EQ(out.stats.leader_crashes, 1u);
  EXPECT_GT(out.recovered_rows, 0u) << "no replica reopened from its image";
  // The wiped replica's log ends below its shard log's start (the new
  // leader's checkpoint marker): it cannot catch up from the log.
  EXPECT_EQ(out.down_after_restart, 1);
}

TEST_F(ReplTest, CheckpointReachesLaggingFollowerAndSurvivesReopen) {
  TempDir dir;
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  opt.data_dir = dir.path();
  auto expect_replicas_agree = [](const ReplicatedKvStore& store) {
    const ShardStatus shard = store.StatusSnapshot()[0];
    auto leader_rows = store.ScanReplicaPrefix(0, shard.leader, "");
    ASSERT_TRUE(leader_rows.ok());
    for (const ReplicaStatus& r : shard.replicas) {
      EXPECT_FALSE(r.down) << "replica " << r.replica;
      EXPECT_EQ(r.durable_lsn, shard.leader_lsn) << "replica " << r.replica;
      EXPECT_EQ(r.checkpoint_lsn, shard.replicas[0].checkpoint_lsn)
          << "replica " << r.replica;
      auto rows = store.ScanReplicaPrefix(0, r.replica, "");
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(*rows, *leader_rows) << "replica " << r.replica;
    }
  };
  uint64_t checkpoint_lsn = 0;
  {
    auto store = OpenOrDie(opt);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store->Put(common::StrFormat("ck%02d", i), "a").ok());
    }
    // Each commit ships to follower 1, then follower 2: dropping every
    // even call cuts follower 2's channel only.
    FaultRule rule;
    for (uint64_t call = 2; call <= 40; call += 2) {
      rule.fail_calls.push_back(call);
    }
    FaultInjector::Default().Program("repl.channel.send", rule);
    for (int i = 5; i < 10; ++i) {
      ASSERT_TRUE(store->Put(common::StrFormat("ck%02d", i), "b").ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
    for (int i = 0; i < 15; i += 2) {
      ASSERT_TRUE(store->Put(common::StrFormat("ck%02d", i), "c").ok());
    }
    ASSERT_TRUE(store->Delete("ck03").ok());
    const ShardStatus lagging = store->StatusSnapshot()[0];
    checkpoint_lsn = lagging.replicas[0].checkpoint_lsn;
    EXPECT_EQ(checkpoint_lsn, 20u);  // 10 puts, two records each
    EXPECT_EQ(lagging.replicas[1].checkpoint_lsn, checkpoint_lsn);
    EXPECT_EQ(lagging.replicas[2].checkpoint_lsn, 0u);
    EXPECT_GT(lagging.replicas[2].lag_frames, 0u);
    FaultInjector::Default().Reset();
    // Catch-up ships the marker inside follower 2's missing suffix.
    ASSERT_TRUE(store->Put("ck99", "d").ok());
    expect_replicas_agree(*store);
    EXPECT_EQ(store->StatusSnapshot()[0].replicas[2].checkpoint_lsn,
              checkpoint_lsn);
  }
  auto store = OpenOrDie(opt);
  expect_replicas_agree(*store);
  const ShardStatus reopened = store->StatusSnapshot()[0];
  for (const ReplicaStatus& r : reopened.replicas) {
    EXPECT_EQ(r.checkpoint_lsn, checkpoint_lsn) << "replica " << r.replica;
    EXPECT_EQ(r.recovered_rows, 10u) << "replica " << r.replica;
  }
  auto got = store->Get("ck04");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "c");
  EXPECT_TRUE(store->Get("ck03").status().IsNotFound());
}

TEST_F(ReplTest, FailedCheckpointLosesFollowerButLeaderKeepsServing) {
  TempDir dir;
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 2;
  opt.write_quorum = 1;
  opt.data_dir = dir.path();
  auto store = OpenOrDie(opt);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store->Put(common::StrFormat("fc%02d", i), "v").ok());
  }
  // Each image fits one page, written by the leader, then follower 1,
  // then follower 2: failing the second page write loses follower 1.
  FaultRule rule;
  rule.fail_calls = {2};
  FaultInjector::Default().Program("storage.page.write", rule);
  ASSERT_TRUE(store->Checkpoint().ok());
  FaultInjector::Default().Reset();
  ShardStatus shard = store->StatusSnapshot()[0];
  EXPECT_TRUE(shard.replicas[1].down);
  EXPECT_FALSE(shard.replicas[2].down);
  EXPECT_GT(shard.replicas[0].checkpoint_lsn, 0u);
  EXPECT_EQ(shard.replicas[2].checkpoint_lsn, shard.replicas[0].checkpoint_lsn);
  ASSERT_TRUE(store->Put("after-follower", "v").ok());  // follower 2 acks
  // A leader checkpoint whose page write fails is returned, and the
  // shard keeps serving on its old image and full WAL.
  rule.fail_calls = {1};
  FaultInjector::Default().Program("storage.page.write", rule);
  EXPECT_FALSE(store->Checkpoint().ok());
  FaultInjector::Default().Reset();
  shard = store->StatusSnapshot()[0];
  EXPECT_EQ(shard.leader, 0);
  EXPECT_EQ(shard.replicas[2].checkpoint_lsn, shard.replicas[0].checkpoint_lsn);
  ASSERT_TRUE(store->Put("after-leader", "v").ok());
  auto rows = store->ScanReplicaPrefix(0, 2, "");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

// A checkpoint whose page write fails leaves nothing for the next one to
// write back: that checkpoint issues as many page writes as the same one
// on a store that never failed, and leaves a pages file of the same size.
TEST_F(ReplTest, FailedCheckpointLeaksNoPagesIntoTheNext) {
  common::Counter* page_writes =
      common::MetricsRegistry::Default().GetCounter("storage.page.writes");
  ReplOptions opt;
  opt.num_shards = 1;
  opt.followers_per_shard = 0;
  opt.write_quorum = 0;
  // A zero-follower store images 8 rows (creating its pages file), takes
  // 8 more and images them. Returns the page writes of that last
  // checkpoint and the pages file's size, after checking that a reopen
  // recovers all 16 rows from the image.
  auto run = [&](bool fail_once_first) -> std::pair<uint64_t, uintmax_t> {
    TempDir dir;
    opt.data_dir = dir.path();
    auto store = OpenOrDie(opt);
    for (int i = 0; i < 16; ++i) {
      if (i == 8) {
        EXPECT_TRUE(store->Checkpoint().ok());
      }
      EXPECT_TRUE(store->Put(common::StrFormat("ck%02d", i), "v").ok());
    }
    if (fail_once_first) {
      FaultRule rule;
      rule.fail_calls = {1};
      FaultInjector::Default().Program("storage.page.write", rule);
      EXPECT_FALSE(store->Checkpoint().ok());
      FaultInjector::Default().Reset();
    }
    const uint64_t writes_before = page_writes->value();
    EXPECT_TRUE(store->Checkpoint().ok());
    const uint64_t writes = page_writes->value() - writes_before;
    const uintmax_t bytes =
        std::filesystem::file_size(dir.path() + "/shard000_replica00.pages");
    store.reset();
    store = OpenOrDie(opt);
    EXPECT_EQ(store->Size(), 16u);
    EXPECT_EQ(store->StatusSnapshot()[0].replicas[0].recovered_rows, 16u);
    return {writes, bytes};
  };
  const auto clean = run(false);
  const auto after_failure = run(true);
  EXPECT_EQ(after_failure.first, clean.first);
  EXPECT_EQ(after_failure.second, clean.second);
}

TEST_F(ReplTest, StoreWithoutCheckpointKeepsOnlyWalFiles) {
  TempDir dir;
  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = 1;
  opt.data_dir = dir.path();
  {
    auto store = OpenOrDie(opt);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store->Put(common::StrFormat("w%02d", i), "v").ok());
    }
  }
  auto store = OpenOrDie(opt);  // reopening creates no pages file either
  EXPECT_EQ(store->Size(), 20u);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{
                       "shard000_replica00.wal", "shard000_replica01.wal",
                       "shard001_replica00.wal", "shard001_replica01.wal"}));
  // A volatile store has no files to checkpoint into.
  ReplOptions volatile_opt;
  EXPECT_EQ(OpenOrDie(volatile_opt)->Checkpoint().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ReplTest, HopsFsRunsOnShardedStoreWithPerShardInodeRanges) {
  ReplOptions opt;
  opt.num_shards = 4;
  opt.followers_per_shard = 1;
  auto store = OpenOrDie(opt);
  dfs::HopsFsCluster cluster(dfs::HopsFsCluster::Options{}, store.get(),
                             opt.num_shards);
  dfs::HopsFsNameNode nn(&cluster);
  ASSERT_TRUE(nn.Mkdir("/data").ok());
  std::set<int64_t> ids;
  std::set<int64_t> ranges;
  for (int i = 0; i < 12; ++i) {
    const std::string path = common::StrFormat("/data/f%02d", i);
    ASSERT_TRUE(nn.Create(path, 64, std::string(64, 'x')).ok());
    auto info = nn.GetFileInfo(path);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(ids.insert(info->inode_id).second) << "duplicate inode id";
    ranges.insert((info->inode_id - 2) / dfs::HopsFsCluster::kIdShardRange);
  }
  // Round-robin allocation spreads ids across every shard's range.
  EXPECT_EQ(ranges.size(), 4u);
  auto listing = nn.List("/data");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 12u);
  auto content = nn.ReadFile("/data/f03");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content->size(), 64u);
  ASSERT_TRUE(nn.Rename("/data/f03", "/data/g03").ok());
  EXPECT_TRUE(nn.GetFileInfo("/data/f03").status().IsNotFound());
  ASSERT_TRUE(nn.Remove("/data/g03").ok());
  auto du = nn.DiskUsage("/data");
  ASSERT_TRUE(du.ok());
  EXPECT_EQ(*du, 64u * 11);
  ASSERT_TRUE(nn.RemoveRecursive("/data").ok());
  EXPECT_TRUE(nn.GetFileInfo("/data").status().IsNotFound());
}

TEST_F(ReplTest, HopsFsOnReplicatedStoreSurvivesRestartWithoutIdCollisions) {
  TempDir dir;
  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = 1;
  opt.data_dir = dir.path();
  std::set<int64_t> ids;
  {
    auto store = OpenOrDie(opt);
    dfs::HopsFsCluster cluster(dfs::HopsFsCluster::Options{}, store.get(),
                               opt.num_shards);
    dfs::HopsFsNameNode nn(&cluster);
    ASSERT_TRUE(nn.Mkdir("/a").ok());
    for (int i = 0; i < 8; ++i) {
      const std::string path = common::StrFormat("/a/f%02d", i);
      ASSERT_TRUE(nn.Create(path, 8, "12345678").ok());
      auto info = nn.GetFileInfo(path);
      ASSERT_TRUE(info.ok());
      ASSERT_TRUE(ids.insert(info->inode_id).second);
    }
  }
  // Reopen the replicated store from its WALs; the new cluster must see
  // the old namespace and resume every shard's id range past it.
  auto store = OpenOrDie(opt);
  dfs::HopsFsCluster cluster(dfs::HopsFsCluster::Options{}, store.get(),
                             opt.num_shards);
  dfs::HopsFsNameNode nn(&cluster);
  auto listing = nn.List("/a");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 8u);
  auto old = nn.ReadFile("/a/f00");
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(*old, "12345678");
  for (int i = 8; i < 16; ++i) {
    const std::string path = common::StrFormat("/a/f%02d", i);
    ASSERT_TRUE(nn.Create(path, 8, "abcdefgh").ok());
    auto info = nn.GetFileInfo(path);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(ids.insert(info->inode_id).second)
        << path << ": resumed allocator re-issued inode id "
        << info->inode_id;
  }
}

TEST_F(ReplTest, ShardzAndPrometheusExposeRolesLagAndElections) {
  ReplOptions opt;
  opt.num_shards = 2;
  opt.followers_per_shard = 1;
  auto store = OpenOrDie(opt);
  ASSERT_TRUE(store->Put("k1", "v1").ok());
  store->CrashReplica(1, 0);  // force one election for the counter

  const std::string shardz = ShardzText(*store);
  EXPECT_NE(shardz.find("shards: 2"), std::string::npos) << shardz;
  EXPECT_NE(shardz.find("leader"), std::string::npos);
  EXPECT_NE(shardz.find("follower"), std::string::npos);
  EXPECT_NE(shardz.find("down"), std::string::npos);
  EXPECT_NE(shardz.find("elections: 1"), std::string::npos);

  const std::string prom = ReplPrometheusText(*store);
  EXPECT_NE(prom.find("# TYPE repl_lag_frames gauge"), std::string::npos);
  EXPECT_NE(prom.find("repl_lag_frames{shard=\"0\",replica=\"1\"} 0"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE repl_elections_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("repl_elections_total{shard=\"1\"} 1"),
            std::string::npos)
      << prom;
}

}  // namespace
}  // namespace exearth::repl
