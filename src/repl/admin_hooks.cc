#include "repl/admin_hooks.h"

#include <vector>

#include "common/string_util.h"

namespace exearth::repl {

using common::StrFormat;

std::string ShardzText(const ReplicatedKvStore& store) {
  const std::vector<ShardStatus> shards = store.StatusSnapshot();
  const ReplStats stats = store.repl_stats();
  std::string body = StrFormat(
      "shards: %d   replicas/shard: %d   write_quorum: %d   mode: %s\n",
      store.num_shards(), store.replicas_per_shard(),
      store.options().write_quorum,
      store.options().data_dir.empty() ? "volatile" : "durable");
  body += StrFormat(
      "acked: %llu   quorum_failures: %llu   elections: %llu   "
      "leader_crashes: %llu\n\n",
      static_cast<unsigned long long>(stats.commits_acked),
      static_cast<unsigned long long>(stats.quorum_failures),
      static_cast<unsigned long long>(stats.elections),
      static_cast<unsigned long long>(stats.leader_crashes));
  body += StrFormat("%-6s %-8s %-9s %12s %12s %10s %10s %18s %11s\n",
                    "shard", "replica", "role", "durable_lsn", "applied_lsn",
                    "lag", "elections", "term", "log_records");
  for (const ShardStatus& shard : shards) {
    for (const ReplicaStatus& r : shard.replicas) {
      const char* role =
          r.down ? "down" : (r.is_leader ? "leader" : "follower");
      body += StrFormat(
          "%-6d %-8d %-9s %12llu %12llu %10llu %10llu %18llx %11llu\n",
          r.shard, r.replica, role,
          static_cast<unsigned long long>(r.durable_lsn),
          static_cast<unsigned long long>(r.applied_lsn),
          static_cast<unsigned long long>(r.lag_frames),
          static_cast<unsigned long long>(shard.elections),
          static_cast<unsigned long long>(shard.election_term),
          static_cast<unsigned long long>(shard.log_records));
    }
  }
  return body;
}

std::string ReplPrometheusText(const ReplicatedKvStore& store) {
  const std::vector<ShardStatus> shards = store.StatusSnapshot();
  std::string out;
  out +=
      "# HELP repl_lag_frames Replication lag (leader durable LSN minus "
      "replica durable LSN).\n";
  out += "# TYPE repl_lag_frames gauge\n";
  for (const ShardStatus& shard : shards) {
    for (const ReplicaStatus& r : shard.replicas) {
      out += StrFormat("repl_lag_frames{shard=\"%d\",replica=\"%d\"} %llu\n",
                       r.shard, r.replica,
                       static_cast<unsigned long long>(r.lag_frames));
    }
  }
  out += "# HELP repl_elections_total Leader failover elections.\n";
  out += "# TYPE repl_elections_total counter\n";
  for (const ShardStatus& shard : shards) {
    out += StrFormat("repl_elections_total{shard=\"%d\"} %llu\n",
                     shard.shard,
                     static_cast<unsigned long long>(shard.elections));
  }
  return out;
}

void RegisterReplAdminHooks(obs::AdminServer* admin,
                            ReplicatedKvStore* store) {
  admin->AddReadinessProbe("repl.quorum",
                           [store] { return store->CheckReady(); });

  admin->AddStatusLine("repl store", [store] {
    const ReplStats stats = store->repl_stats();
    return StrFormat(
        "%d shard(s) x %d replica(s), %llu acked commit(s), %llu "
        "election(s)",
        store->num_shards(), store->replicas_per_shard(),
        static_cast<unsigned long long>(stats.commits_acked),
        static_cast<unsigned long long>(stats.elections));
  });

  admin->AddPrometheusCollector(
      [store] { return ReplPrometheusText(*store); });

  admin->AddPage("/shardz", "shard/replica roles, LSNs, lag, elections",
                 [store](const obs::HttpRequest&) {
                   return obs::HttpResponse{200,
                                            "text/plain; charset=utf-8",
                                            ShardzText(*store)};
                 });
}

}  // namespace exearth::repl
