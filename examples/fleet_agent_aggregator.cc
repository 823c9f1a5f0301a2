// The distributed deployment, end to end over real loopback TCP: K
// "agents" (one thread + one TelemetryEngine each, standing in for
// per-host monitoring daemons) sketch their local traffic and ship it
// every simulated second through the real transport stack — an
// AgentClient (net/client.h) speaking the authenticated HELLO/ACK
// protocol to an AggregatorServer (net/server.h) that feeds one
// AggregatorEngine:
//
//   agent 0 (thread) --AgentClient--\
//   agent 1 (thread) --AgentClient---> TCP --> AggregatorServer
//   ...              --AgentClient--/            -> AggregatorEngine
//                                                   -> Query(p99, CDF)
//
// The delta-sync loop runs exactly as in production: first contact ships
// a full frame, steady state ships only unseen sub-windows, and the
// server's ACK carries the ingest verdict per frame. Two faults exercise
// the recovery machinery, and the run self-verifies both:
//  - at t=10, agent 0's frame is dropped after its cursor advanced (a
//    frame lost in transit): the next delta's base epoch no longer
//    matches, the aggregator NAKs, and the client resyncs with a full
//    frame on the same connection;
//  - at t=6, agent 0 restarts (fresh engine, fresh client, fresh TCP
//    connection, fresh sync_token): the server replaces the dead session,
//    and the full frame whose epoch restarts at 1 replaces the state.
//
// Two metric shapes demonstrate both pooling modes:
//  - rtt_us{host=hK}: one QLOVE metric per host, rolled up by tag
//    selector (the paper's estimator chain runs across process
//    boundaries exactly as it runs across shards);
//  - rpc_us{service=checkout}: the SAME MetricKey reported by every
//    agent on a GK backend — pooled across sources into one answer with
//    a deterministic epsilon rank bound.
//
// The run self-verifies (and exits nonzero on violation): the fleet p99
// served by the aggregator is compared against a union-stream oracle
// built from the very values the agents ingested — within the documented
// deterministic rank bound for GK, plus the Theorem-1 statistical term
// (1.5x the 95% CI half-width + a 4/m finite-m allowance, the same budget
// tests/merge_property_test.cc pins) for QLOVE.
//
//   $ ./fleet_agent_aggregator [--agents=4] [--seconds=16]

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/generators.h"

namespace {

constexpr int kWindowSeconds = 8;     // sub-windows per agent window
constexpr int kSamplesPerSecond = 512;  // per agent per metric
constexpr int kShards = 2;
// Fault injection (both hit agent 0). The restart lands early enough
// that the final window holds only post-restart traffic, so the oracle
// comparison at the end stays exact; the drop lands after the restart so
// the NAK/resync round-trip runs against the new incarnation.
constexpr int kRestartSecond = 6;  // agent redeploys before ingesting t=6
constexpr int kDropSecond = 10;    // agent 0's t=10 frame lost in transit
const char kFleetToken[] = "fleet-demo-token";

using qlove::engine::AggregatorEngine;
using qlove::engine::BackendKind;
using qlove::engine::BackendOptions;
using qlove::engine::EngineOptions;
using qlove::engine::MetricKey;
using qlove::engine::QueryRequest;
using qlove::engine::QueryResult;
using qlove::engine::QuerySpec;
using qlove::engine::TagSelector;
using qlove::engine::TelemetryEngine;

/// One agent's pre-generated traffic (generated up front so the main
/// thread can build the union-stream oracle from the exact same values).
struct AgentTraffic {
  std::vector<std::vector<double>> rtt;  // [second] -> samples
  std::vector<std::vector<double>> rpc;  // [second] -> samples
};

/// Client-side protocol counters each agent leaves behind for the final
/// report (written before the thread joins, read after).
struct AgentReport {
  qlove::net::AgentClient::Counters counters;
  bool failed = false;
};

/// The per-host agent: ingest one second of traffic, Tick, deliver the
/// frame through the real client (delta steady state, NAK-driven resync,
/// reconnect-on-restart). The barrier paces every agent and the main
/// thread through the same simulated second, so fleet epochs stay
/// aligned the way a common tick cadence aligns them in production.
void RunAgent(int id, int seconds, const AgentTraffic* traffic,
              uint16_t port, std::barrier<>* clock, AgentReport* report) {
  EngineOptions options;
  options.num_shards = kShards;
  options.shard_window =
      qlove::WindowSpec(kSamplesPerSecond / kShards * kWindowSeconds,
                        kSamplesPerSecond / kShards);

  const MetricKey rtt_key =
      MetricKey("rtt_us", {{"service", "netmon"}})
          .WithTag("host", "h" + std::to_string(id));
  const MetricKey rpc_key("rpc_us", {{"service", "checkout"}});
  BackendOptions gk;
  gk.kind = BackendKind::kGk;
  gk.epsilon = 0.001;  // the default phi grid reaches p99.9
  auto make_engine = [&]() {
    auto engine = std::make_unique<TelemetryEngine>(options);
    if (!engine->RegisterMetric(rtt_key).ok() ||
        !engine->RegisterMetric(rpc_key, gk).ok()) {
      std::fprintf(stderr, "agent %d: registration failed\n", id);
      std::exit(1);
    }
    return engine;
  };
  const std::string source = "host-" + std::to_string(id);
  qlove::net::ClientOptions client_options;
  client_options.port = port;
  client_options.auth_token = kFleetToken;
  client_options.source = source;
  // Dogfooding: each frame carries the agent's own `__qlove/` stage
  // sketches alongside its telemetry, so the aggregator can answer
  // fleet-health quantiles (e.g. "p99 Tick latency across all hosts")
  // through the same query surface as the telemetry itself.
  qlove::engine::ExportOptions with_self;
  with_self.include_self_metrics = true;
  auto make_client = [&](TelemetryEngine* engine) {
    return std::make_unique<qlove::net::AgentClient>(
        client_options, qlove::net::AgentClient::ForEngine(engine, with_self));
  };

  std::unique_ptr<TelemetryEngine> engine = make_engine();
  std::unique_ptr<qlove::net::AgentClient> client = make_client(engine.get());
  for (int second = 0; second < seconds; ++second) {
    clock->arrive_and_wait();  // round starts
    if (id == 0 && second == kRestartSecond) {
      // The daemon redeploys: engine, cursor, sync token, and TCP
      // connection are all process state, so everything starts over —
      // including the Tick epoch counter, which is why frames carry the
      // incarnation token. The server replaces the dead session when the
      // new connection authenticates as the same source.
      client.reset();
      engine = make_engine();
      client = make_client(engine.get());
    }
    if (!engine->RecordBatch(rtt_key, traffic->rtt[second]).ok() ||
        !engine->RecordBatch(rpc_key, traffic->rpc[second]).ok()) {
      std::fprintf(stderr, "agent %d: ingest failed\n", id);
      report->failed = true;
    }
    engine->Tick();
    if (id == 0 && second + 1 == kDropSecond) {
      // Injected fault: the produced frame advances the cursor but never
      // reaches the wire — a frame lost in transit. The NEXT delta's
      // base epoch will not match the server's held state and gets
      // NAKed; the client then resyncs with a full frame.
      client->set_testing_drop_next_frame();
      std::printf("t=%2ds  [fault] dropping agent 0's frame in transit\n",
                  second + 1);
    }
    const qlove::Status delivered = client->DeliverOnce();
    if (!delivered.ok()) {
      std::fprintf(stderr, "agent %d: %s\n", id,
                   delivered.ToString().c_str());
      report->failed = true;
    }
    clock->arrive_and_wait();  // round ends: frame ingested (or dropped)
  }
  report->counters = client->counters();
}

double RankErrorVsOracle(const std::vector<double>& sorted, double estimate,
                         double phi) {
  const auto n = static_cast<int64_t>(sorted.size());
  const int64_t target = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(phi * static_cast<double>(n))), 1, n);
  const int64_t lo = std::lower_bound(sorted.begin(), sorted.end(), estimate) -
                     sorted.begin();
  const int64_t hi = std::upper_bound(sorted.begin(), sorted.end(), estimate) -
                     sorted.begin();
  const int64_t nearest =
      hi > lo ? std::clamp(target, lo + 1, hi) : std::min(lo + 1, n);
  return std::abs(static_cast<double>(target - nearest)) /
         static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  int agents = 4;
  int seconds = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--agents=", 9) == 0) {
      agents = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atoi(argv[i] + 10);
    }
  }
  // The run must be long enough for the fault schedule: the restart
  // needs a full window of post-restart seconds (or the final oracle
  // comparison would cover traffic agent 0 lost with its old engine),
  // and the drop needs the NAK + resync round-trip to complete.
  const int min_seconds =
      std::max(kRestartSecond + kWindowSeconds, kDropSecond + 2);
  if (agents < 1 || seconds < min_seconds) {
    std::fprintf(stderr,
                 "need --agents >= 1 and --seconds >= %d (restart at t=%d "
                 "+ %d-deep window; drop at t=%d + resync)\n",
                 min_seconds, kRestartSecond, kWindowSeconds, kDropSecond);
    return 1;
  }

  // 1. Pre-generate every agent's traffic: per-host NetMon RTTs (similar
  //    traffic, distinct sample paths — the fleet setting) and the shared
  //    checkout RPC stream.
  std::vector<AgentTraffic> traffic(static_cast<size_t>(agents));
  for (int a = 0; a < agents; ++a) {
    qlove::workload::NetMonGenerator rtt_gen(100 + static_cast<uint64_t>(a));
    qlove::workload::SearchGenerator rpc_gen(200 + static_cast<uint64_t>(a));
    for (int s = 0; s < seconds; ++s) {
      traffic[a].rtt.push_back(
          qlove::workload::Materialize(&rtt_gen, kSamplesPerSecond));
      traffic[a].rpc.push_back(
          qlove::workload::Materialize(&rpc_gen, kSamplesPerSecond));
    }
  }

  // 2. The aggregator tier behind a real TCP server on an ephemeral
  //    loopback port, agents connecting through the authenticated client.
  AggregatorEngine aggregator;
  qlove::net::ServerOptions server_options;
  server_options.auth_token = kFleetToken;
  qlove::net::AggregatorServer server(&aggregator, server_options);
  const qlove::Status serving = server.Start();
  if (!serving.ok()) {
    std::fprintf(stderr, "server: %s\n", serving.ToString().c_str());
    return 1;
  }
  std::printf("aggregator serving on 127.0.0.1:%u (%d agents)\n",
              server.port(), agents);

  // The barrier paces agents AND this thread through each simulated
  // second: queries at the end of round s see exactly the frames of
  // round s, the way a lockstep tick cadence behaves in the fleet.
  std::barrier<> clock(agents + 1);
  std::vector<AgentReport> reports(static_cast<size_t>(agents));
  std::vector<std::thread> threads;
  for (int a = 0; a < agents; ++a) {
    threads.emplace_back(RunAgent, a, seconds, &traffic[a], server.port(),
                         &clock, &reports[a]);
  }

  // 3. Fleet queries every 4th second, between rounds.
  const TagSelector fleet{"rtt_us", {{"service", "netmon"}}};
  const MetricKey rpc_key("rpc_us", {{"service", "checkout"}});
  for (int second = 1; second <= seconds; ++second) {
    clock.arrive_and_wait();  // round starts (agents ingest + deliver)
    clock.arrive_and_wait();  // round ends (every frame acked)
    if (second % 4 != 0) continue;

    auto rolled = aggregator.Query(QuerySpec::ForSelector(fleet)
                                       .With(QueryRequest::Quantile(0.99))
                                       .With(QueryRequest::Rank(900.0))
                                       .With(QueryRequest::Count()));
    auto shared = aggregator.Query(QuerySpec::ForKey(rpc_key)
                                       .With(QueryRequest::Quantile(0.99)));
    if (!rolled.ok() || !shared.ok()) {
      std::fprintf(stderr, "fleet query failed\n");
      return 1;
    }
    const QueryResult& fleet_result = rolled.ValueOrDie();
    const QueryResult& rpc_result = shared.ValueOrDie();
    std::printf(
        "t=%2ds  epoch=%lld  rtt fleet [%zu hosts, %lld ev]  p99=%.0fus"
        "  >900us: %.2f%%   |  rpc_us (pooled %lld sources) p99=%.0fus"
        " (±%.4f rank)\n",
        second, static_cast<long long>(aggregator.FleetEpoch()),
        fleet_result.matched.size(),
        static_cast<long long>(fleet_result.window_count),
        fleet_result.outcomes[0].value,
        (1.0 - fleet_result.outcomes[1].value) * 100.0,
        static_cast<long long>(rpc_result.sources_fresh),
        rpc_result.outcomes[0].value,
        rpc_result.outcomes[0].rank_error_bound);
  }
  for (std::thread& t : threads) t.join();
  for (const AgentReport& report : reports) {
    if (report.failed) {
      std::fprintf(stderr, "an agent reported delivery failures\n");
      return 1;
    }
  }

  // Steady-state size accounting from the aggregator's own counters: the
  // average applied delta vs re-encoding each source's full held state.
  const auto health = aggregator.FleetHealth();
  size_t full_state_bytes = 0;
  for (int a = 0; a < agents; ++a) {
    auto held = aggregator.SourceSnapshot("host-" + std::to_string(a));
    if (held.ok()) {
      full_state_bytes +=
          qlove::engine::EncodeSnapshot(held.ValueOrDie()).size();
    }
  }
  const double avg_delta_bytes =
      health.delta_ingests > 0
          ? static_cast<double>(health.wire_bytes_delta_ingested) /
                static_cast<double>(health.delta_ingests)
          : 0.0;
  const double avg_full_bytes =
      agents > 0 ? static_cast<double>(full_state_bytes) / agents : 0.0;
  std::printf("steady-state wire cost (2 metrics + `__qlove/` "
              "self-metrics): avg delta %.0f bytes vs %.0f bytes to re-ship "
              "a full state (%.2fx)\n",
              avg_delta_bytes, avg_full_bytes,
              avg_delta_bytes > 0 ? avg_full_bytes / avg_delta_bytes : 0.0);

  // Fleet health, two ways. First the aggregator's own self-portrait —
  // now including the transport tier: per-connection lifecycle (agent
  // 0's restart shows as accepts > agents), frame/byte flow, and
  // per-source connected/last-seen liveness.
  std::printf("\n-- aggregator self-metrics --\n%s",
              qlove::engine::FormatFleetHealth(health).c_str());
  // Then the agents' health *as a fleet metric*: every frame shipped each
  // host's `__qlove/stage_us{stage=tick}` sketch, so the p99 Tick latency
  // across the whole fleet is one ordinary rollup query away.
  auto fleet_tick = aggregator.Query(
      QuerySpec::ForKey(
          qlove::engine::StageMetricKey(qlove::engine::Stage::kTick))
          .With(QueryRequest::Quantile(0.99)));
  if (fleet_tick.ok() && fleet_tick.ValueOrDie().outcomes[0].status.ok()) {
    std::printf("fleet-wide agent Tick p99 (pooled %lld hosts): %.1fus\n",
                static_cast<long long>(
                    fleet_tick.ValueOrDie().sources_fresh),
                fleet_tick.ValueOrDie().outcomes[0].value);
  }

  // 4. Self-verification against union-stream oracles over exactly the
  //    last kWindowSeconds of traffic (what every agent's window holds).
  std::vector<double> rtt_union;
  std::vector<double> rpc_union;
  for (int a = 0; a < agents; ++a) {
    for (int s = seconds - kWindowSeconds; s < seconds; ++s) {
      rtt_union.insert(rtt_union.end(), traffic[a].rtt[s].begin(),
                       traffic[a].rtt[s].end());
      rpc_union.insert(rpc_union.end(), traffic[a].rpc[s].begin(),
                       traffic[a].rpc[s].end());
    }
  }
  std::sort(rtt_union.begin(), rtt_union.end());
  std::sort(rpc_union.begin(), rpc_union.end());

  bool ok = true;
  auto check = [&ok](const char* what, double err, double budget) {
    const bool pass = err <= budget;
    std::printf("  %-28s rank error %.5f vs documented budget %.5f  [%s]\n",
                what, err, budget, pass ? "OK" : "VIOLATION");
    ok = ok && pass;
  };

  auto final_fleet = aggregator.Query(
      QuerySpec::ForSelector(fleet).With(QueryRequest::Quantile(0.99)));
  auto final_rpc = aggregator.Query(
      QuerySpec::ForKey(rpc_key).With(QueryRequest::Quantile(0.99)));
  if (!final_fleet.ok() || !final_rpc.ok()) {
    std::fprintf(stderr, "final fleet query failed\n");
    return 1;
  }
  std::printf("\nverification vs union-stream oracle (%zu values, %d "
              "agents):\n", rtt_union.size(), agents);

  // QLOVE fleet rollup: documented grid bound + the Theorem-1 statistical
  // term in rank space (1.5x CI + 4/m finite-m allowance; see
  // tests/merge_property_test.cc for the derivation).
  {
    const qlove::engine::QueryOutcome& p99 =
        final_fleet.ValueOrDie().outcomes[0];
    const double n = static_cast<double>(rtt_union.size());
    const double m = static_cast<double>(kSamplesPerSecond / kShards);
    const double budget = p99.rank_error_bound +
                          1.5 * 2.0 * 1.96 * std::sqrt(0.99 * 0.01 / n) +
                          4.0 / m;
    check("qlove fleet p99 (rollup)",
          RankErrorVsOracle(rtt_union, p99.value, 0.99), budget);
  }
  // GK shared key: the deterministic epsilon bound, no statistical slack.
  {
    const qlove::engine::QueryOutcome& p99 =
        final_rpc.ValueOrDie().outcomes[0];
    const double budget = p99.rank_error_bound +
                          1.0 / static_cast<double>(rpc_union.size());
    check("gk shared-key p99 (pooled)",
          RankErrorVsOracle(rpc_union, p99.value, 0.99), budget);
  }

  // Delta-protocol + transport convergence: the injected drop must have
  // produced a NAK/resync round-trip, the restart must have produced a
  // second accepted connection, and the steady state must run on deltas.
  {
    long long full_frames = 0;
    long long delta_frames = 0;
    for (const auto& status : health.sources) {
      full_frames += status.full_frames;
      delta_frames += status.delta_frames;
    }
    const auto& agent0 = reports[0].counters;
    auto require = [&ok](const char* what, bool pass) {
      std::printf("  %-44s [%s]\n", what, pass ? "OK" : "VIOLATION");
      ok = ok && pass;
    };
    std::printf("\ndelta-sync protocol (dropped frame at t=%d, agent 0 "
                "restart at t=%d):\n", kDropSecond, kRestartSecond);
    std::printf("  frames applied: %lld full + %lld delta; agent 0 saw "
                "%lld NAKs; aggregator resyncs_requested=%lld; transport "
                "accepts=%lld\n",
                full_frames, delta_frames,
                static_cast<long long>(agent0.naks),
                static_cast<long long>(health.resyncs_requested),
                static_cast<long long>(health.transport.accepts));
    require("injected drop surfaced as a NAK",
            agent0.naks >= 1 && health.resyncs_requested >= 1);
    require("restart reconnected through the server",
            health.transport.accepts >= agents + 1);
    require("steady state runs on deltas, not full frames",
            delta_frames > full_frames);
    require("deltas undercut re-shipping the full state",
            avg_delta_bytes > 0 && avg_delta_bytes < avg_full_bytes);
  }
  server.Stop();
  if (!ok) {
    std::fprintf(stderr, "\nFAILED: fleet answers left the documented "
                         "bounds\n");
    return 1;
  }
  std::printf("\nall fleet answers within documented bounds\n");
  return 0;
}
