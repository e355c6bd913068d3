#include "serve/admin_hooks.h"

#include <chrono>

#include "common/string_util.h"
#include "serve/broker.h"
#include "serve/slo.h"

namespace exearth::serve {

using common::StrFormat;

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string RenderTenantz(QueryBroker* broker, SloTracker* slo,
                          const std::function<int64_t()>& now_us) {
  std::string body = StrFormat("tenants: %zu\n\n", broker->num_tenants());
  body += StrFormat("%-16s %6s %-12s %10s %9s %9s %7s %10s %10s %7s %8s\n",
                    "tenant", "weight", "priority", "quota_rps", "offered",
                    "ok", "errors", "quota_shed", "adm_shed", "cached",
                    "batched");
  for (const TenantStats& s : broker->TenantStatsSnapshot()) {
    body += StrFormat(
        "%-16s %6u %-12s %10.0f %9llu %9llu %7llu %10llu %10llu %7llu "
        "%8llu\n",
        s.name.c_str(), s.weight, common::PriorityToString(s.priority),
        s.quota_rps, static_cast<unsigned long long>(s.offered),
        static_cast<unsigned long long>(s.ok),
        static_cast<unsigned long long>(s.errors),
        static_cast<unsigned long long>(s.quota_shed),
        static_cast<unsigned long long>(s.admission_shed),
        static_cast<unsigned long long>(s.cache_hits),
        static_cast<unsigned long long>(s.batched));
  }
  if (slo != nullptr) {
    body += "\nSLO burn rates (window counts; burn 1.0 = budget consumed "
            "at the sustainable rate)\n";
    body += slo->TableText(now_us());
  }
  if (broker->shutting_down()) body += "\nbroker is SHUTTING DOWN\n";
  return body;
}

}  // namespace

void RegisterServeAdminHooks(obs::AdminServer* admin, QueryBroker* broker,
                             SloTracker* slo,
                             std::function<int64_t()> now_us) {
  if (now_us == nullptr) now_us = SteadyNowUs;

  admin->AddReadinessProbe("serve.broker",
                           [broker] { return broker->CheckReady(); });

  admin->AddStatusLine("serve broker", [broker] {
    return StrFormat("%zu tenant(s), %zu cached entr%s, max_batch %zu%s",
                     broker->num_tenants(), broker->cache_size(),
                     broker->cache_size() == 1 ? "y" : "ies",
                     broker->options().max_batch,
                     broker->shutting_down() ? ", SHUTTING DOWN" : "");
  });

  if (slo != nullptr) {
    admin->AddPrometheusCollector(
        [slo, now_us] { return slo->PrometheusText(now_us()); });
  }

  admin->AddPage("/tenantz", "per-tenant quota/shed/cache/SLO table",
                 [broker, slo, now_us](const obs::HttpRequest&) {
                   return obs::HttpResponse{
                       200, "text/plain; charset=utf-8",
                       RenderTenantz(broker, slo, now_us)};
                 });
}

}  // namespace exearth::serve
