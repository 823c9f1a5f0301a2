// Copyright 2026 The QLOVE Reproduction Authors
// End-to-end benchmark: every workload runs the whole path a user pays for,
// from TelemetryEngine::Record on an agent until an AggregatorEngine::Query
// sees the event:
//
//   Record -> Flush + Tick (ring drain, QLOVE sub-window close, agent WAL)
//          -> ExportDeltaEncoded -> AgentClient::DeliverOnce (loopback TCP)
//          -> AggregatorServer -> IngestFrame (decode, apply, aggregator WAL)
//          -> AggregatorEngine::Query
//
// One thread drives the load in a closed loop; the server's event-loop
// thread is the only other thread. Ticks are triggered by event count, so
// every round does identical work. Inputs are generated from --seed before
// any timing; set-up and window fill happen before the clock starts. Every
// query answer is checked against an oracle computed from the raw inputs
// (oracle.h). Both threads are pinned to one CPU, and a fixed host probe
// timed after every round picks the quietest slices of the run and scales
// the bounded times (ReportedCost). See README.md for workloads, metrics
// and tolerances.
//
//   e2ebench --workload hot|wide|fleet --seed N --seconds S --trace 0|1
//            [--work-dir DIR]
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
// then a traced timed phase and reports the per-layer metrics, writing the
// spans to DIR/spans-<workload>-<seed>.jsonl.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "engine/aggregator.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "workload/generators.h"

namespace e2ebench {
namespace {

using qlove::Status;
using qlove::engine::AggregatorEngine;
using qlove::engine::EngineOptions;
using qlove::engine::MetricKey;
using qlove::engine::QueryOutcome;
using qlove::engine::QueryRequest;
using qlove::engine::QueryRequestKind;
using qlove::engine::QueryResult;
using qlove::engine::QuerySpec;
using qlove::engine::TagSelector;
using qlove::engine::TelemetryEngine;
using qlove::net::AgentClient;
using qlove::net::AggregatorServer;

constexpr char kToken[] = "e2ebench";
constexpr char kMetricName[] = "rtt_us";

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile of \p values (copied, so callers keep order).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  return values[static_cast<size_t>(rank - 1)];
}

/// A series of timings kept in a fixed buffer, allocated and touched up
/// front, so the benchmark's own memory does not grow with the number of
/// rounds a run completes (peak RSS would otherwise follow the host's
/// speed). When the buffer fills, every other sample is dropped and only
/// every other later sample is kept: what remains is a uniform subsample
/// of the whole series, in order.
class Samples {
 public:
  static constexpr size_t kCapacity = size_t{1} << 14;

  Samples() : data_(kCapacity, 0.0) {}

  void Add(double v) {
    const uint64_t index = seen_++;
    if (index % stride_ != 0) return;
    if (size_ == kCapacity) {
      for (size_t i = 0; i < kCapacity / 2; ++i) data_[i] = data_[2 * i];
      size_ = kCapacity / 2;
      stride_ *= 2;
      if (index % stride_ != 0) return;
    }
    data_[size_++] = v;
  }

  std::span<const double> values() const { return {data_.data(), size_}; }
  size_t size() const { return size_; }

 private:
  std::vector<double> data_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

double Percentile(const Samples& samples, double p) {
  const auto v = samples.values();
  return Percentile(std::vector<double>(v.begin(), v.end()), p);
}

/// A fixed piece of work that does not depend on the program under test:
/// dependent loads spread over an 8 MiB table, then a sort of 2048 doubles.
/// It is timed (thread CPU time) after every measured round, and the
/// end-to-end times are scaled by its nominal over its measured median,
/// so they read as on a host of the reference speed (README, "Host
/// speed").
class HostProbe {
 public:
  /// The probe's median CPU time on the reference host (4-vCPU Intel Xeon
  /// VM, GCC 12, -O2).
  static constexpr double kNominalUs = 550.0;

  HostProbe() : table_(size_t{1} << 21), sort_input_(2048) {
    qlove::Rng rng(0x686f737470726f62ULL);
    for (uint32_t& t : table_) t = static_cast<uint32_t>(rng.Next64());
    for (double& d : sort_input_) d = rng.NextDouble();
    scratch_.reserve(sort_input_.size());
  }

  /// Runs the probe once; returns its thread CPU time in microseconds.
  double Run() {
    const int64_t t0 = ThreadCpuNs();
    uint32_t x = 1;
    const uint32_t mask = static_cast<uint32_t>(table_.size() - 1);
    for (uint32_t i = 0; i < 2000; ++i) {
      x = table_[(x ^ i) & mask] + x * 2654435761u;
    }
    scratch_.assign(sort_input_.begin(), sort_input_.end());
    std::sort(scratch_.begin(), scratch_.end());
    sink_ += x + static_cast<uint32_t>(scratch_[x % scratch_.size()] * 1e6);
    return static_cast<double>(ThreadCpuNs() - t0) / 1e3;
  }

  uint32_t sink() const { return sink_; }

 private:
  std::vector<uint32_t> table_;
  std::vector<double> sort_input_;
  std::vector<double> scratch_;
  uint32_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  int agents = 1;
  int keys_per_agent = 16;
  int64_t events_per_tick = 0;  ///< Per agent-tick.
  double zipf_s = 1.0;
  int window_ticks = 8;         ///< W: sub-windows per window.
  int input_ticks = 11;         ///< P: input ticks cycled through.
  int num_shards = 4;
  size_t shard_ring_capacity = 4096;
  size_t thread_buffer_capacity = 256;
  bool wal = false;
  int key_targets_per_round = 0;  ///< Checked per-key queries per round.
  int checked_keys = 0;           ///< Keys with an oracle (top ones first).
  int rollup_groups = 0;          ///< svc groups (wide) with an oracle.
  double slo_us = 2000.0;         ///< Rank threshold of rollup queries.
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "hot") {
    w.agents = 1;
    w.keys_per_agent = 16;
    w.events_per_tick = 49152;
    w.checked_keys = 16;
    w.key_targets_per_round = 16;
  } else if (name == "wide") {
    w.agents = 1;
    w.keys_per_agent = 512;
    w.events_per_tick = 24576;
    w.num_shards = 1;
    w.shard_ring_capacity = 64;
    w.thread_buffer_capacity = 32;
    w.checked_keys = 64;
    w.key_targets_per_round = 8;
    w.rollup_groups = 64;
  } else if (name == "fleet") {
    w.agents = 4;
    w.keys_per_agent = 256;
    w.events_per_tick = 8192;
    w.num_shards = 1;
    w.wal = true;
    w.checked_keys = 256;
    // Per round: 4 freshness (top-key) queries and 5 rollups, both slower
    // than a typical key query. 24 rotating keys keep the mix's median
    // inside the typical keys instead of at the boundary with the slow
    // ones, where it jumps from run to run.
    w.key_targets_per_round = 24;
  } else {
    w.name.clear();
  }
  return w;
}

const std::vector<double> kKeyPhis = {0.5, 0.9, 0.99, 0.999};
constexpr int kSetupsPerBurst = 11;  ///< Set-ups timed per burst.
constexpr int kSetupBursts = 5;      ///< Bursts per run, a second apart.
const std::vector<double> kRollupPhis = {0.5, 0.99, 0.999};
constexpr int kDcs = 4;

/// A queried target with its oracle: P sorted runs of raw values, one per
/// input tick, covering every event the target's keys receive.
struct Target {
  std::string label;
  bool rollup = false;
  QuerySpec spec;
  /// [input tick] sorted values: a key's own unit runs, or `pooled`.
  const std::vector<std::vector<double>>* runs = nullptr;
  std::vector<std::vector<double>> pooled;  ///< Rollups: members' union.
  std::vector<std::pair<int, int>> members;  ///< (agent, key) pooled.
  bool summarize = false;  ///< Worst answers printed to stderr at the end.
};

/// One agent's inputs: P input ticks of (key index, value) events.
struct AgentInput {
  std::vector<MetricKey> keys;
  std::vector<std::vector<uint32_t>> key_index;  ///< [input tick][event]
  std::vector<std::vector<double>> values;       ///< [input tick][event]
  std::vector<std::vector<int>> targets_of_key;  ///< key -> target ids
  /// [key][input tick] sorted values: the per-(key, tick) units whose
  /// sub-window quantiles the estimator averages (see QuantileTolerance).
  std::vector<std::vector<std::vector<double>>> unit_runs;
};

struct Inputs {
  std::vector<AgentInput> agents;
  std::vector<Target> targets;
  std::vector<int> fresh_target;  ///< Per agent: its top key's target.
  std::vector<int> round_targets_fixed;  ///< Queried every round.
  std::vector<int> rotating_keys;        ///< Key targets, rotated through.
  std::vector<int> rotating_rollups;     ///< Rollup targets, rotated.
  int64_t input_bytes = 0;
  int64_t oracle_bytes = 0;
  int64_t max_key_events_per_tick = 0;  ///< Expected, for the top key.
};

MetricKey KeyFor(const Workload& w, int agent, int k) {
  char svc[16];
  std::snprintf(svc, sizeof(svc), "s%05d", k);
  char group[16];
  std::snprintf(group, sizeof(group), "g%02d",
                w.rollup_groups > 0 ? k % w.rollup_groups : 0);
  return MetricKey(kMetricName, {{"dc", "dc" + std::to_string(k % kDcs)},
                                 {"host", "h" + std::to_string(agent)},
                                 {"svc", svc},
                                 {"grp", group}});
}

QuerySpec KeySpec(const MetricKey& key) {
  QuerySpec spec = QuerySpec::ForKey(key);
  for (double phi : kKeyPhis) spec.With(QueryRequest::Quantile(phi));
  spec.With(QueryRequest::Count());
  return spec;
}

QuerySpec RollupSpec(std::vector<qlove::engine::MetricTag> tags,
                     double slo_us) {
  QuerySpec spec = QuerySpec::ForSelector(TagSelector{kMetricName, tags});
  for (double phi : kRollupPhis) spec.With(QueryRequest::Quantile(phi));
  spec.With(QueryRequest::Rank(slo_us));
  spec.With(QueryRequest::Count());
  return spec;
}

Inputs GenerateInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  const int K = w.keys_per_agent;
  const int P = w.input_ticks;

  // Zipf key popularity: rank r (0-based) has weight 1 / (r + 1)^s.
  std::vector<double> cdf(static_cast<size_t>(K));
  double total = 0.0;
  for (int r = 0; r < K; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
    cdf[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf) c /= total;
  in.max_key_events_per_tick = static_cast<int64_t>(
      std::ceil(cdf[0] * static_cast<double>(w.events_per_tick)));

  // Targets. Per-key targets for the checked keys of every agent; the
  // agent's top key doubles as its freshness query.
  qlove::Rng pick(seed ^ 0x6b65797069636bULL);
  std::vector<int> checked;
  for (int k = 0; k < std::min(K, w.checked_keys); ++k) {
    // Top keys first (they carry the tail), then keys drawn across ranks.
    checked.push_back(k < 16 ? k : 16 + static_cast<int>(pick.UniformInt(
                                            static_cast<uint64_t>(K - 16))));
  }
  std::sort(checked.begin(), checked.end());
  checked.erase(std::unique(checked.begin(), checked.end()), checked.end());

  in.agents.resize(static_cast<size_t>(w.agents));
  for (int a = 0; a < w.agents; ++a) {
    AgentInput& agent = in.agents[static_cast<size_t>(a)];
    agent.keys.reserve(static_cast<size_t>(K));
    for (int k = 0; k < K; ++k) agent.keys.push_back(KeyFor(w, a, k));
    agent.targets_of_key.resize(static_cast<size_t>(K));
    for (int k : checked) {
      Target t;
      t.label = "key:" + std::to_string(a) + "/" + std::to_string(k);
      t.spec = KeySpec(agent.keys[static_cast<size_t>(k)]);
      t.members.emplace_back(a, k);
      agent.targets_of_key[static_cast<size_t>(k)].push_back(
          static_cast<int>(in.targets.size()));
      if (k == 0) {
        t.summarize = true;
        in.fresh_target.push_back(static_cast<int>(in.targets.size()));
      } else {
        in.rotating_keys.push_back(static_cast<int>(in.targets.size()));
      }
      in.targets.push_back(std::move(t));
    }
  }
  auto add_rollup = [&](const std::string& label,
                        std::vector<qlove::engine::MetricTag> tags,
                        const std::function<bool(int agent, int k)>& member) {
    Target t;
    t.label = label;
    t.rollup = true;
    t.spec = RollupSpec(std::move(tags), w.slo_us);
    const int id = static_cast<int>(in.targets.size());
    in.targets.push_back(std::move(t));
    for (int a = 0; a < w.agents; ++a) {
      for (int k = 0; k < K; ++k) {
        if (member(a, k)) {
          in.targets.back().members.emplace_back(a, k);
          in.agents[static_cast<size_t>(a)]
              .targets_of_key[static_cast<size_t>(k)]
              .push_back(id);
        }
      }
    }
    return id;
  };
  if (w.rollup_groups > 0) {
    // wide: one svc-group rollup per round, rotating over the groups.
    for (int g = 0; g < w.rollup_groups; ++g) {
      char group[16];
      std::snprintf(group, sizeof(group), "g%02d", g);
      in.rotating_rollups.push_back(add_rollup(
          std::string("grp:") + group, {{"grp", group}},
          [&](int, int k) { return k % w.rollup_groups == g; }));
    }
  } else {
    // hot, fleet: the dashboard — per-dc rollups (fleet only: hot's one
    // agent is one host) and the fleet-wide rollup, every round.
    if (w.agents > 1) {
      for (int dc = 0; dc < kDcs; ++dc) {
        in.round_targets_fixed.push_back(
            add_rollup("dc:" + std::to_string(dc),
                       {{"dc", "dc" + std::to_string(dc)}},
                       [&](int, int k) { return k % kDcs == dc; }));
      }
    }
    in.round_targets_fixed.push_back(
        add_rollup("all", {}, [](int, int) { return true; }));
    for (int id : in.round_targets_fixed) {
      in.targets[static_cast<size_t>(id)].summarize = true;
    }
  }

  // Events, and the oracle runs they feed.
  for (Target& t : in.targets) {
    if (t.rollup) t.pooled.resize(static_cast<size_t>(P));
  }
  for (int a = 0; a < w.agents; ++a) {
    AgentInput& agent = in.agents[static_cast<size_t>(a)];
    qlove::Rng keys_rng(seed * 1000003ULL + static_cast<uint64_t>(a) * 7919ULL +
                        1);
    qlove::workload::NetMonGenerator values(seed * 1000033ULL +
                                            static_cast<uint64_t>(a) + 17);
    agent.key_index.resize(static_cast<size_t>(P));
    agent.values.resize(static_cast<size_t>(P));
    agent.unit_runs.assign(static_cast<size_t>(K),
                           std::vector<std::vector<double>>(
                               static_cast<size_t>(P)));
    for (int j = 0; j < P; ++j) {
      auto& idx = agent.key_index[static_cast<size_t>(j)];
      auto& vals = agent.values[static_cast<size_t>(j)];
      idx.resize(static_cast<size_t>(w.events_per_tick));
      vals.resize(static_cast<size_t>(w.events_per_tick));
      for (int64_t e = 0; e < w.events_per_tick; ++e) {
        const double u = keys_rng.NextDouble();
        const auto k = static_cast<uint32_t>(
            std::min<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin(),
                             static_cast<size_t>(K - 1)));
        const double v = values.Next();
        idx[static_cast<size_t>(e)] = k;
        vals[static_cast<size_t>(e)] = v;
        agent.unit_runs[k][static_cast<size_t>(j)].push_back(v);
        for (int t : agent.targets_of_key[k]) {
          Target& target = in.targets[static_cast<size_t>(t)];
          if (target.rollup) target.pooled[static_cast<size_t>(j)].push_back(v);
        }
      }
      in.input_bytes += w.events_per_tick *
                        static_cast<int64_t>(sizeof(uint32_t) + sizeof(double));
    }
  }
  auto seal = [&](std::vector<double>& run) {
    std::sort(run.begin(), run.end());
    run.shrink_to_fit();
    in.oracle_bytes += static_cast<int64_t>(run.size() * sizeof(double));
  };
  for (Target& t : in.targets) {
    for (auto& run : t.pooled) seal(run);
  }
  for (AgentInput& agent : in.agents) {
    for (auto& key_runs : agent.unit_runs) {
      for (auto& run : key_runs) seal(run);
    }
  }
  for (Target& t : in.targets) {
    const auto& [agent, key] = t.members.front();
    t.runs = t.rollup ? &t.pooled
                      : &in.agents[static_cast<size_t>(agent)]
                             .unit_runs[static_cast<size_t>(key)];
  }
  return in;
}

EngineOptions AgentEngineOptions(const Workload& w, const Inputs& in) {
  EngineOptions options;
  options.num_shards = w.num_shards;
  // Sub-window period matched to the load, as EngineOptions documents: the
  // top key's expected per-shard records per Tick.
  const int64_t period = std::max<int64_t>(
      64, (in.max_key_events_per_tick + w.num_shards - 1) / w.num_shards);
  options.shard_window = qlove::WindowSpec(period * w.window_ticks, period);
  options.shard_ring_capacity = w.shard_ring_capacity;
  options.thread_buffer_capacity = w.thread_buffer_capacity;
  return options;
}

// ---------------------------------------------------------------------------
// The rig: aggregator + server + agents, built and torn down per set-up.
// ---------------------------------------------------------------------------

/// Per-agent tracing hooks around the frame producer.
struct ProducerTrace {
  bool capture = false;
  int64_t export_start_ns = 0;  ///< The last export's span.
  int64_t export_end_ns = 0;
  std::vector<uint8_t> last_frame;
};

struct Agent {
  std::unique_ptr<TelemetryEngine> engine;
  std::unique_ptr<ProducerTrace> trace;
  std::unique_ptr<AgentClient> client;
};

struct Rig {
  // Declaration order is teardown order reversed: clients go first (their
  // producers point into the engines), the server before its aggregator.
  std::unique_ptr<AggregatorEngine> aggregator;
  std::unique_ptr<AggregatorEngine> shadow;  // traced runs only
  std::unique_ptr<AggregatorServer> server;
  std::vector<Agent> agents;

  ~Rig() {
    for (Agent& a : agents) a.client.reset();
    if (server) server->Stop();
  }
};

/// The WAL lives in the checkout, on whatever disk holds it. Flushing is
/// left to the OS so the run times the log code (encode, checkpoint, write)
/// and not the shared disk's fdatasync latency; on a memory-backed
/// filesystem every_tick's fdatasync costs next to nothing, which is what
/// this setting reproduces.
qlove::engine::WalOptions BenchWalOptions() {
  qlove::engine::WalOptions options;
  options.fsync = qlove::engine::WalFsyncPolicy::kOs;
  return options;
}

/// Empties \p wal_dir (housekeeping between set-ups, outside their timing).
Status ResetWalDir(const std::string& wal_dir) {
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  std::filesystem::create_directories(wal_dir, ec);
  if (ec) return Status::Internal("cannot create " + wal_dir);
  return Status::OK();
}

Status BuildRig(const Workload& w, const Inputs& in, bool traced,
                const std::string& wal_dir, Rig* rig) {
  rig->aggregator = std::make_unique<AggregatorEngine>();
  if (w.wal) {
    QLOVE_RETURN_NOT_OK(
        rig->aggregator->EnableWal(wal_dir + "/aggregator", BenchWalOptions()));
  }
  if (traced) rig->shadow = std::make_unique<AggregatorEngine>();
  qlove::net::ServerOptions server_options;
  server_options.auth_token = kToken;
  rig->server =
      std::make_unique<AggregatorServer>(rig->aggregator.get(), server_options);
  QLOVE_RETURN_NOT_OK(rig->server->Start());

  const EngineOptions options = AgentEngineOptions(w, in);
  rig->agents.resize(static_cast<size_t>(w.agents));
  for (int a = 0; a < w.agents; ++a) {
    Agent& agent = rig->agents[static_cast<size_t>(a)];
    agent.engine = std::make_unique<TelemetryEngine>(options);
    for (const MetricKey& key : in.agents[static_cast<size_t>(a)].keys) {
      QLOVE_RETURN_NOT_OK(agent.engine->RegisterMetric(key));
    }
    if (w.wal) {
      QLOVE_RETURN_NOT_OK(agent.engine->EnableWal(
          wal_dir + "/agent-" + std::to_string(a), BenchWalOptions()));
    }
    AgentClient::FrameProducer producer =
        AgentClient::ForEngine(agent.engine.get());
    if (traced) {
      agent.trace = std::make_unique<ProducerTrace>();
      ProducerTrace* trace = agent.trace.get();
      producer = [inner = std::move(producer), trace](
                     const std::string& source, bool force_full,
                     std::vector<uint8_t>* out) {
        trace->export_start_ns = NowNs();
        Status status = inner(source, force_full, out);
        trace->export_end_ns = NowNs();
        if (trace->capture) trace->last_frame = *out;
        return status;
      };
    }
    qlove::net::ClientOptions client_options;
    client_options.port = rig->server->port();
    client_options.auth_token = kToken;
    client_options.source = "agent-" + std::to_string(a);
    agent.client =
        std::make_unique<AgentClient>(client_options, std::move(producer));
    // The first frame: an empty Tick, then the acked full frame.
    agent.engine->Tick();
    QLOVE_RETURN_NOT_OK(agent.client->DeliverOnce());
  }
  return Status::OK();
}

/// Brings the shadow aggregator level with the served one before the
/// traced phase: one full frame per agent through a fresh cursor (same
/// source, same epoch), after which every captured delta applies.
Status StartShadow(Rig* rig) {
  for (size_t a = 0; a < rig->agents.size(); ++a) {
    Agent& agent = rig->agents[a];
    qlove::engine::ExportCursor cursor;
    std::vector<uint8_t> frame;
    QLOVE_RETURN_NOT_OK(agent.engine->ExportDeltaEncoded(
        "agent-" + std::to_string(a), &cursor, &frame));
    auto ack = rig->shadow->IngestFrame(frame);
    if (!ack.ok()) return ack.status();
    if (!ack.ValueOrDie().applied) {
      return Status::Internal("shadow aggregator refused a full frame");
    }
    agent.trace->capture = true;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Relative error bound of value quantization at the default 3 significant
/// digits (core/quantizer.h).
constexpr double kQuantizeRel = 0.005;
/// Stripe-sampling slack, in standard deviations of a sample quantile's
/// rank (see README "Tolerance").
constexpr double kStripeSigmas = 4.0;
/// Sample-k's sampling fraction (the engine default FewKSizing).
const double kSampleKAlpha = qlove::core::FewKSizing{}.samplek_fraction;
/// Reconciliation slack of the traced run: Flush+Tick, delivery and the
/// first query must add up to visible_us within this much per agent-tick
/// (p99 of the residual) and within this share of the summed visible_us.
/// The spans are consecutive clock reads, so this confirms only that they
/// are contiguous (no call on the path runs outside them), not how time
/// is attributed inside DeliverOnce.
constexpr double kResidualP99Us = 50.0;
constexpr double kResidualShare = 0.005;

/// The worst answers seen for one summarized target.
struct Worst {
  double rel_err[2] = {0.0, 0.0};  ///< At phi 0.99, 0.999.
  double estimate[2] = {0.0, 0.0};
  double exact[2] = {0.0, 0.0};
  int source[2] = {0, 0};          ///< core::OutcomeSource of the worst.
  int64_t high_answers = 0;        ///< Populated answers at phi >= 0.99.
  int64_t samplek_answers = 0;     ///< ... served through sample-k.
};

struct Accuracy {
  double rank_err_max = 0.0;
  int64_t high_answers = 0;     ///< Populated answers at phi >= 0.99.
  int64_t samplek_answers = 0;  ///< ... served through sample-k.
  std::map<std::string, Worst> worst;  ///< Summarized targets only.
  double rel_err_p99 = 0.0;   ///< Max |est - exact| / exact at phi 0.99.
  double rel_err_p999 = 0.0;  ///< ... at phi 0.999.
  int64_t value_bound_misses = 0;
  double tightest = 0.0;  ///< Largest rank error / tolerance seen.
  double tightest_level2 = 0.0;  ///< ... over Level-2 quantile answers.
  int64_t checks = 0;
  int64_t failed = 0;                 ///< Failed checks.
  std::vector<std::string> failures;  ///< First few failures, for stderr.

  /// A failed check.
  void Fail(std::string what) {
    ++failed;
    Note(std::move(what));
  }
  /// A failed operation (counted in Ops), logged with the check failures.
  void Note(std::string what) {
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

/// The window the aggregator should serve after tick \p tick (0-based
/// count of data ticks driven) for target \p t.
void WindowFor(const Workload& w, const Target& t, int64_t tick,
               WindowOracle* oracle) {
  oracle->Clear();
  const int64_t first = std::max<int64_t>(0, tick - w.window_ticks + 1);
  for (int64_t d = first; d <= tick; ++d) {
    oracle->AddRun((*t.runs)[static_cast<size_t>(d % w.input_ticks)]);
  }
}

/// The per-(key, tick) units of \p t's window: the raw-value runs whose
/// sub-window summaries the estimator pools.
template <typename Fn>
void ForEachUnit(const Workload& w, const Inputs& in, const Target& t,
                 int64_t tick, Fn&& fn) {
  const int64_t first = std::max<int64_t>(0, tick - w.window_ticks + 1);
  for (const auto& [agent, key] : t.members) {
    const auto& key_runs =
        in.agents[static_cast<size_t>(agent)].unit_runs[static_cast<size_t>(key)];
    for (int64_t d = first; d <= tick; ++d) {
      const auto& run = key_runs[static_cast<size_t>(d % w.input_ticks)];
      if (!run.empty()) fn(std::span<const double>(run));
    }
  }
}

/// Rank slack for a sub-window that holds a 1/num_shards stripe of a
/// unit: a sample quantile's rank deviates by about sqrt(phi(1-phi)/m).
double StripeSlack(double phi, int64_t smallest_unit, int num_shards) {
  if (num_shards <= 1) return 0.0;
  const double m = std::max(
      1.0, static_cast<double>(smallest_unit) / static_cast<double>(num_shards));
  return kStripeSigmas * std::sqrt(phi * (1.0 - phi) / m);
}

/// Rank tolerances for a quantile answer at \p phi, one per way the
/// estimator can serve it.
struct QuantileTolerances {
  double level2 = 0.0;  ///< Sub-window mean (OutcomeSource::kLevel2).
  double fewk = 0.0;    ///< Merged tails (top-k, sample-k).
};

/// Level 2 answers with the count-weighted mean of the sub-window
/// summaries' phi-quantiles. On exact sub-windows, one per (key, tick),
/// that mean is m = sum(n_u q_u) / sum(n_u): its tolerance is the rank span
/// between m and the exact quantile, widened by quantization, plus 2/N.
/// With S > 1 shards each summary holds a 1/S stripe of a unit; the units
/// share one value distribution, so the stripes' rank deviations average
/// to about sqrt(phi(1-phi)/N) over the window (kStripeSigmas of them), and
/// each summary's own rank rounding adds up to one of its ranks
/// (summaries / N in all).
///
/// Few-k answers merge the summaries' captured tails, which lie inside the
/// range [q_lo, q_hi] of the units' exact phi-quantiles: their tolerance is
/// the rank span of that range, widened the same way, plus the stripe
/// slack of the smallest unit.
QuantileTolerances QuantileTolerance(const Workload& w, const Inputs& in,
                                     const Target& t, int64_t tick,
                                     const WindowOracle& window, double phi,
                                     double exact) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  double weighted = 0.0;
  int64_t smallest = std::numeric_limits<int64_t>::max();
  int64_t units = 0;
  ForEachUnit(w, in, t, tick, [&](std::span<const double> run) {
    const double q = RunQuantile(run, phi);
    lo = std::min(lo, q);
    hi = std::max(hi, q);
    weighted += q * static_cast<double>(run.size());
    smallest = std::min<int64_t>(smallest, static_cast<int64_t>(run.size()));
    units += 1;
  });
  const double n = static_cast<double>(window.Count());
  const double mean = weighted / n;
  QuantileTolerances tol;
  tol.level2 = window.RankSpan(std::min(mean, exact) * (1.0 - kQuantizeRel),
                               std::max(mean, exact) * (1.0 + kQuantizeRel),
                               phi) +
               2.0 / n;
  if (w.num_shards > 1) {
    tol.level2 += kStripeSigmas * std::sqrt(phi * (1.0 - phi) / n) +
                  static_cast<double>(units * w.num_shards) / n;
  }
  tol.fewk = window.RankSpan(lo * (1.0 - kQuantizeRel), hi * (1.0 + kQuantizeRel),
                             phi) +
             StripeSlack(phi, smallest, w.num_shards) + 2.0 / n;
  return tol;
}

/// Tolerance for a Rank(value) answer: the width of the quantile-grid cell
/// the exact CDF falls in (the answer interpolates inside it), plus the
/// spread of the units' CDFs at the quantization-widened value, plus the
/// stripe slack.
double RankTolerance(const Workload& w, const Inputs& in, const Target& t,
                     int64_t tick, const WindowOracle& window, double value,
                     double cdf) {
  static const std::vector<double> kGrid = {0.0, 0.5, 0.9, 0.99, 0.999, 1.0};
  double cell = 1.0;
  for (size_t i = 1; i < kGrid.size(); ++i) {
    if (cdf <= kGrid[i]) {
      cell = kGrid[i] - kGrid[i - 1];
      break;
    }
  }
  double lo = 1.0;
  double hi = 0.0;
  int64_t smallest = std::numeric_limits<int64_t>::max();
  ForEachUnit(w, in, t, tick, [&](std::span<const double> run) {
    const double n = static_cast<double>(run.size());
    auto at_or_below = [&](double v) {
      return static_cast<double>(std::upper_bound(run.begin(), run.end(), v) -
                                 run.begin()) /
             n;
    };
    lo = std::min(lo, at_or_below(value * (1.0 - kQuantizeRel)));
    hi = std::max(hi, at_or_below(value * (1.0 + kQuantizeRel)));
    smallest = std::min<int64_t>(smallest, static_cast<int64_t>(run.size()));
  });
  return cell + std::max(0.0, hi - lo) +
         StripeSlack(cdf, smallest, w.num_shards) +
         2.0 / static_cast<double>(window.Count());
}

/// What the exact window says about one target: its population, range,
/// and per request the exact answer (quantile value or CDF) with its rank
/// tolerance. Once the window is full it repeats every P ticks, so it is
/// computed once per (target, tick mod P) and cached.
struct Expected {
  int64_t count = 0;
  int64_t summaries = 0;  ///< Sub-window summaries pooled: units x shards.
  double min = 0.0;
  double max = 0.0;
  std::vector<double> exact;
  std::vector<double> tolerance;  ///< Rank(v); Level-2 quantile answers.
  std::vector<double> fewk_tolerance;  ///< Top-k, sample-k quantile answers.
};

Expected ComputeExpected(const Workload& w, const Inputs& in, const Target& t,
                         int64_t tick, const WindowOracle& window) {
  Expected e;
  e.count = window.Count();
  if (e.count == 0) return e;
  e.min = window.Min();
  e.max = window.Max();
  ForEachUnit(w, in, t, tick, [&](std::span<const double>) {
    e.summaries += w.num_shards;
  });
  for (const QueryRequest& request : t.spec.requests) {
    double exact = 0.0;
    double tolerance = 0.0;
    double fewk_tolerance = 0.0;
    if (request.kind == QueryRequestKind::kQuantile) {
      exact = window.Quantile(request.argument);
      const QuantileTolerances tol =
          QuantileTolerance(w, in, t, tick, window, request.argument, exact);
      tolerance = tol.level2;
      fewk_tolerance = tol.fewk;
    } else if (request.kind == QueryRequestKind::kRank) {
      exact = window.Cdf(request.argument);
      tolerance =
          RankTolerance(w, in, t, tick, window, request.argument, exact);
    }
    e.exact.push_back(exact);
    e.tolerance.push_back(tolerance);
    e.fewk_tolerance.push_back(fewk_tolerance);
  }
  return e;
}

using ExpectedCache = std::map<std::pair<int, int64_t>, Expected>;

/// Computes every target's expected answers for every full-window phase
/// before set-up, so the checks' memory is the same whatever the number of
/// rounds a run completes.
ExpectedCache PrimeExpected(const Workload& w, const Inputs& in) {
  ExpectedCache cache;
  const int64_t P = w.input_ticks;
  for (size_t id = 0; id < in.targets.size(); ++id) {
    const Target& t = in.targets[id];
    for (int64_t phase = 0; phase < P; ++phase) {
      const int64_t first = w.window_ticks - 1;
      const int64_t tick = first + ((phase - first) % P + P) % P;
      WindowOracle window;
      WindowFor(w, t, tick, &window);
      cache[{static_cast<int>(id), phase}] =
          ComputeExpected(w, in, t, tick, window);
    }
  }
  return cache;
}

/// Checks one answer against the exact window: (a) count conservation,
/// (b) quantiles non-decreasing in phi and inside [min, max], (c) rank
/// error within tolerance. One check per call; a violation fails it.
void CheckAnswer(const Workload& w, const Inputs& in, int target_id,
                 const QueryResult& result, int64_t tick, ExpectedCache* cache,
                 Accuracy* acc) {
  const Target& t = in.targets[static_cast<size_t>(target_id)];
  WindowOracle window;
  WindowFor(w, t, tick, &window);
  // Windows still filling (tick < W - 1) are unique; full ones repeat.
  const int64_t phase =
      tick >= w.window_ticks - 1 ? tick % w.input_ticks : -1 - tick;
  auto [it, fresh] = cache->try_emplace({target_id, phase});
  if (fresh) it->second = ComputeExpected(w, in, t, tick, window);
  const Expected& e = it->second;
  const int64_t n = e.count;
  acc->checks += 1;
  const std::string where = t.label + " tick " + std::to_string(tick);
  double prev = -std::numeric_limits<double>::infinity();
  auto prev_source = qlove::core::OutcomeSource::kLevel2;
  bool ok = true;
  auto fail = [&](const std::string& what) {
    if (ok) acc->Fail(where + ": " + what);
    ok = false;
  };
  for (size_t i = 0; i < t.spec.requests.size(); ++i) {
    const QueryRequest& request = t.spec.requests[i];
    const QueryOutcome& outcome = result.outcomes[i];
    if (request.kind == QueryRequestKind::kCount) {
      if (!outcome.status.ok() || outcome.value != static_cast<double>(n) ||
          result.window_count != n) {
        fail("count " + std::to_string(outcome.value) + " / window " +
             std::to_string(result.window_count) + ", recorded " +
             std::to_string(n));
      }
      continue;
    }
    if (n == 0) {
      // An empty window answers quantiles and ranks with a per-outcome
      // FailedPrecondition by design.
      if (outcome.status.ok()) fail("answer on an empty window");
      continue;
    }
    if (!outcome.status.ok()) {
      fail("outcome status " + outcome.status.ToString());
      continue;
    }
    if (request.kind == QueryRequestKind::kQuantile) {
      const double phi = request.argument;
      const double v = outcome.value;
      if (v < prev) fail("quantile decreases at phi " + std::to_string(phi));
      // The estimator raises an answer below the previous phi's to it
      // (RestoreQuantileMonotonicity): a Level-2 answer equal to a few-k
      // answer just before it is that few-k answer.
      const bool level2 =
          outcome.source == qlove::core::OutcomeSource::kLevel2 &&
          !(v == prev && prev_source != qlove::core::OutcomeSource::kLevel2);
      prev = v;
      prev_source = outcome.source;
      if (v < e.min * (1.0 - kQuantizeRel) || v > e.max * (1.0 + kQuantizeRel)) {
        fail("quantile " + std::to_string(v) + " outside [" +
             std::to_string(e.min) + ", " + std::to_string(e.max) + "]");
      }
      const double rank_err = window.RankError(v, phi);
      double tol = (level2 ? e.tolerance[i] : e.fewk_tolerance[i]) +
                   outcome.rank_error_bound;
      if (outcome.source == qlove::core::OutcomeSource::kSampleK) {
        // Sample-k keeps every (1/alpha)-th tail value of each summary, so
        // each pooled summary can shift the merged rank by 1/alpha.
        tol += static_cast<double>(e.summaries) / kSampleKAlpha /
               static_cast<double>(n);
      }
      acc->tightest = std::max(acc->tightest, rank_err / tol);
      if (level2) {
        acc->tightest_level2 = std::max(acc->tightest_level2, rank_err / tol);
      }
      if (rank_err > tol) {
        fail("rank error " + std::to_string(rank_err) + " > " +
             std::to_string(tol) + " at phi " + std::to_string(phi));
      }
      // Guards cover answers with at least ten window values beyond phi.
      if (n < 1000 || static_cast<double>(n) * (1.0 - phi) < 10.0) continue;
      acc->rank_err_max = std::max(acc->rank_err_max, rank_err);
      const double exact = e.exact[i];
      const double abs_err = std::fabs(v - exact);
      if (std::isfinite(outcome.value_error_bound) &&
          abs_err > outcome.value_error_bound) {
        acc->value_bound_misses += 1;
      }
      if (phi < 0.99) continue;
      const bool samplek =
          outcome.source == qlove::core::OutcomeSource::kSampleK;
      acc->high_answers += 1;
      acc->samplek_answers += samplek ? 1 : 0;
      const int slot = phi == 0.99 ? 0 : 1;
      double& rel_err_max = slot == 0 ? acc->rel_err_p99 : acc->rel_err_p999;
      rel_err_max = std::max(rel_err_max, abs_err / exact);
      if (t.summarize) {
        Worst& worst = acc->worst[t.label];
        worst.high_answers += 1;
        worst.samplek_answers += samplek ? 1 : 0;
        if (abs_err / exact >= worst.rel_err[slot]) {
          worst.rel_err[slot] = abs_err / exact;
          worst.estimate[slot] = v;
          worst.exact[slot] = exact;
          worst.source[slot] = static_cast<int>(outcome.source);
        }
      }
    } else if (request.kind == QueryRequestKind::kRank) {
      const double err = std::fabs(outcome.value - e.exact[i]);
      acc->tightest = std::max(acc->tightest, err / e.tolerance[i]);
      if (n >= 1000) acc->rank_err_max = std::max(acc->rank_err_max, err);
      if (err > e.tolerance[i]) {
        fail("rank(" + std::to_string(request.argument) + ") " +
             std::to_string(outcome.value) + " vs exact " +
             std::to_string(e.exact[i]) + ", tolerance " +
             std::to_string(e.tolerance[i]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The measured loop
// ---------------------------------------------------------------------------

/// Operation accounting: attempted / failed per kind.
struct Ops {
  int64_t record = 0, record_failed = 0;
  int64_t tick = 0, tick_failed = 0;
  int64_t deliver = 0, deliver_failed = 0;
  int64_t query = 0, query_failed = 0;

  int64_t attempted() const { return record + tick + deliver + query; }
  int64_t failed() const {
    return record_failed + tick_failed + deliver_failed + query_failed;
  }
};

/// One span of the traced run. Spans of one agent-tick share (agent,
/// tick); `parent` names the enclosing span's layer ("" at the top).
struct Span {
  int agent;
  int64_t tick;
  const char* layer;
  const char* parent;
  int64_t start_ns;
  int64_t end_ns;
};

struct PhaseResult {
  int64_t events = 0;
  int64_t agent_ticks = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  Samples visible_us;
  Samples query_us;
  Samples query_key_us;
  Samples query_rollup_us;
  Samples probe_us;  ///< HostProbe, once per round.
  /// A slice is one input cycle of rounds (Workload::input_ticks), so
  /// every slice does the same work.
  struct Slice {
    int64_t cpu_ns = 0;
    int64_t events = 0;
    double probe_us = 0.0;      ///< Median over the slice's rounds.
    double query_us_p50 = 0.0;  ///< Median over the slice's queries.
  };
  std::vector<Slice> slices = std::vector<Slice>(kMaxSlices);
  size_t slice_count = 0;
  std::vector<double> slice_query_us;  ///< The open slice's queries.
  std::vector<double> slice_probe_us;  ///< The open slice's probes.
  static constexpr size_t kMaxSlices = 8192;
  int64_t wire_bytes = 0;
  // Traced only.
  int64_t record_ns = 0;
  Samples tick_us;
  Samples export_us;
  Samples deliver_net_us;
  Samples ingest_us;
  Samples residual_us;  ///< visible - (tick + deliver + query)
  std::vector<Span> spans;
};

struct Driver {
  const Workload& w;
  const Inputs& in;
  Rig& rig;
  int64_t tick = -1;          ///< Data ticks driven so far, minus one.
  size_t rotate_key = 0;
  size_t rotate_rollup = 0;
  Ops ops;
  Accuracy acc;

  struct Pending {
    int target;
    QueryResult result;
  };
  std::vector<Pending> pending;  ///< Answers of this round, checked after.
  ExpectedCache expected;
  HostProbe probe;

  /// Runs one query; returns its start time (its end is the caller's
  /// next clock read).
  int64_t RunQuery(int target_id, bool measured, PhaseResult* phase) {
    const Target& t = in.targets[static_cast<size_t>(target_id)];
    const int64_t t0 = NowNs();
    auto result = rig.aggregator->Query(t.spec);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    ops.query += 1;
    if (!result.ok()) {
      ops.query_failed += 1;
      acc.Note(t.label + ": query " + result.status().ToString());
    } else {
      pending.push_back({target_id, result.TakeValue()});
    }
    if (measured) {
      phase->query_us.Add(us);
      phase->slice_query_us.push_back(us);
      (t.rollup ? phase->query_rollup_us : phase->query_key_us).Add(us);
    }
    return t0;
  }

  /// One round: every agent records one input tick, ticks and delivers,
  /// then the aggregator answers the freshness query and the round's mix.
  void Round(bool measured, bool traced, PhaseResult* phase) {
    tick += 1;
    const size_t j = static_cast<size_t>(tick % w.input_ticks);
    for (int a = 0; a < w.agents; ++a) {
      const AgentInput& input = in.agents[static_cast<size_t>(a)];
      Agent& agent = rig.agents[static_cast<size_t>(a)];
      TelemetryEngine& engine = *agent.engine;
      const auto& idx = input.key_index[j];
      const auto& vals = input.values[j];
      const int64_t rec0 = NowNs();
      int64_t record_failed = 0;
      for (size_t e = 0; e < idx.size(); ++e) {
        if (!engine.Record(input.keys[idx[e]], vals[e]).ok()) ++record_failed;
      }
      const int64_t rec1 = NowNs();
      ops.record += static_cast<int64_t>(idx.size());
      ops.record_failed += record_failed;

      engine.Flush();
      engine.Tick();
      const int64_t tick1 = NowNs();
      ops.tick += 1;

      const int64_t bytes0 = agent.client->counters().bytes_sent;
      const Status delivered = agent.client->DeliverOnce();
      const int64_t del1 = NowNs();
      ops.deliver += 1;
      if (!delivered.ok()) {
        ops.deliver_failed += 1;
        acc.Note("agent " + std::to_string(a) + ": deliver " +
                 delivered.ToString());
      }

      const int64_t q0 =
          RunQuery(in.fresh_target[static_cast<size_t>(a)], measured, phase);
      const int64_t q1 = NowNs();

      if (measured) {
        phase->events += static_cast<int64_t>(idx.size());
        phase->agent_ticks += 1;
        phase->visible_us.Add(static_cast<double>(q1 - rec1) / 1e3);
        phase->wire_bytes += agent.client->counters().bytes_sent - bytes0;
      }
      if (measured && traced) {
        const ProducerTrace& trace = *agent.trace;
        const int64_t export_ns = trace.export_end_ns - trace.export_start_ns;
        phase->record_ns += rec1 - rec0;
        phase->tick_us.Add(static_cast<double>(tick1 - rec1) / 1e3);
        phase->export_us.Add(static_cast<double>(export_ns) / 1e3);
        phase->deliver_net_us.Add(
            static_cast<double>(del1 - tick1 - export_ns) / 1e3);
        // Reconciliation: Flush+Tick, delivery (export included) and the
        // first query must add up to visible_us; the residual is the time
        // between the calls (see kResidualP99Us).
        const int64_t parts = (tick1 - rec1) + (del1 - tick1) + (q1 - q0);
        phase->residual_us.Add(
            static_cast<double>((q1 - rec1) - parts) / 1e3);
        phase->spans.push_back({a, tick, "engine.record", "", rec0, rec1});
        phase->spans.push_back(
            {a, tick, "engine.flush_tick", "", rec1, tick1});
        phase->spans.push_back({a, tick, "wire.export", "net.deliver",
                                trace.export_start_ns, trace.export_end_ns});
        phase->spans.push_back({a, tick, "net.deliver", "", tick1, del1});
        phase->spans.push_back({a, tick, "aggregator.query", "", q0, q1});
      }
      if (traced) {
        // Aggregator ingest, timed apart from the transport: replay the
        // frame the producer shipped into the shadow aggregator.
        const int64_t i0 = NowNs();
        auto ack = rig.shadow->IngestFrame(agent.trace->last_frame);
        const int64_t i1 = NowNs();
        if (!ack.ok() || !ack.ValueOrDie().applied) {
          acc.Fail("shadow aggregator refused a produced frame");
        }
        if (measured) {
          phase->ingest_us.Add(static_cast<double>(i1 - i0) / 1e3);
          phase->spans.push_back(
              {a, tick, "aggregator.ingest", "", i0, i1});
        }
      }
    }
    // The round's dashboard mix.
    for (int id : in.round_targets_fixed) RunQuery(id, measured, phase);
    for (int k = 0; k < w.key_targets_per_round && !in.rotating_keys.empty();
         ++k) {
      RunQuery(in.rotating_keys[rotate_key++ % in.rotating_keys.size()],
               measured, phase);
    }
    if (!in.rotating_rollups.empty()) {
      RunQuery(in.rotating_rollups[rotate_rollup++ %
                                   in.rotating_rollups.size()],
               measured, phase);
    }
  }

  /// Checks every answer of the round (outside the clock).
  void CheckRound() {
    for (const Pending& p : pending) {
      CheckAnswer(w, in, p.target, p.result, tick, &expected, &acc);
    }
    pending.clear();
  }

  /// Runs whole rounds until \p seconds of round time have passed, with
  /// the host probe after each round and a slice closed after every input
  /// cycle (see ReportedCost).
  void Measure(double seconds, bool traced, PhaseResult* phase) {
    const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
    PhaseResult::Slice open;
    while (phase->wall_ns < budget_ns) {
      const int64_t cpu0 = ProcessCpuNs();
      const int64_t t0 = NowNs();
      const int64_t events0 = phase->events;
      Round(/*measured=*/true, traced, phase);
      phase->wall_ns += NowNs() - t0;
      const int64_t cpu_ns = ProcessCpuNs() - cpu0;
      phase->cpu_ns += cpu_ns;
      open.cpu_ns += cpu_ns;
      open.events += phase->events - events0;
      CheckRound();
      const double probe_us = probe.Run();
      phase->probe_us.Add(probe_us);
      phase->slice_probe_us.push_back(probe_us);
      if (phase->slice_probe_us.size() ==
          static_cast<size_t>(w.input_ticks)) {
        open.probe_us = Percentile(phase->slice_probe_us, 0.5);
        open.query_us_p50 = Percentile(phase->slice_query_us, 0.5);
        if (phase->slice_count < PhaseResult::kMaxSlices) {
          phase->slices[phase->slice_count++] = open;
        }
        open = {};
        phase->slice_probe_us.clear();
        phase->slice_query_us.clear();
      }
    }
  }
};

/// The end-to-end times of a phase, taken over its quietest tenth: the
/// slices whose host probe read lowest (at least kMinQuietSlices). The host's speed moves within a
/// run, on a scale of seconds, by as much as a factor of two on a busy
/// host, and the share of slow seconds differs from run to run; the cost
/// while the host was least loaded repeats, whatever that share. The
/// slices are chosen by the probe, not by their own cost, so the choice
/// does not favour slices whose rounds did less work.
struct QuietCost {
  double cpu_ns_per_event = 0.0;
  double query_us_p50 = 0.0;
  double probe_us = 0.0;
  size_t slices = 0;  ///< Slices the figures come from.
};

constexpr size_t kMinQuietSlices = 4;

QuietCost ReportedCost(const PhaseResult& phase) {
  std::vector<PhaseResult::Slice> slices(
      phase.slices.begin(),
      phase.slices.begin() + static_cast<std::ptrdiff_t>(phase.slice_count));
  if (slices.empty()) {  // A run too short to close one slice.
    return {static_cast<double>(phase.cpu_ns) /
                static_cast<double>(std::max<int64_t>(1, phase.events)),
            Percentile(phase.query_us, 0.5), Percentile(phase.probe_us, 0.5),
            0};
  }
  std::sort(slices.begin(), slices.end(),
            [](const auto& a, const auto& b) { return a.probe_us < b.probe_us; });
  const size_t quiet =
      std::min(slices.size(), std::max(kMinQuietSlices, slices.size() / 10));
  int64_t cpu_ns = 0;
  int64_t events = 0;
  std::vector<double> queries;
  std::vector<double> probes;
  for (size_t i = 0; i < quiet; ++i) {
    cpu_ns += slices[i].cpu_ns;
    events += slices[i].events;
    queries.push_back(slices[i].query_us_p50);
    probes.push_back(slices[i].probe_us);
  }
  return {static_cast<double>(cpu_ns) / static_cast<double>(events),
          Percentile(queries, 0.5), Percentile(probes, 0.5), quiet};
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = std::atoi(value.c_str());
    else if (flag == "--work-dir") args->work_dir = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload hot|wide|fleet --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const Workload w = MakeWorkload(args.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;

  // Every thread (this one and the server's event loop, created later)
  // runs on one CPU: the loop is closed, so the two threads take turns,
  // and the state one writes is read by the other from the same cache
  // rather than from wherever the scheduler placed it.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  int pinned_cpu = -1;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0 && pinned_cpu < 0; --c) {
      if (CPU_ISSET(c, &allowed)) pinned_cpu = c;
    }
  }
  if (pinned_cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(pinned_cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) pinned_cpu = -1;
  }
  const std::string wal_dir = args.work_dir + "/wal-" + std::to_string(getpid());

  const Inputs in = GenerateInputs(w, args.seed);
  const int64_t prime0 = NowNs();
  ExpectedCache expected = PrimeExpected(w, in);
  std::fprintf(stderr, "oracle: %zu expected answer sets in %.2f s; cpu %d\n",
               expected.size(), static_cast<double>(NowNs() - prime0) / 1e9,
               pinned_cpu);
  std::fprintf(stderr,
               "e2ebench %s seed=%llu: %d agent(s) x %d keys, %lld events per "
               "agent-tick, W=%d, inputs %.1f MiB, oracle %.1f MiB, %zu "
               "targets\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               w.agents, w.keys_per_agent,
               static_cast<long long>(w.events_per_tick), w.window_ticks,
               static_cast<double>(in.input_bytes) / (1 << 20),
               static_cast<double>(in.oracle_bytes) / (1 << 20),
               in.targets.size());

  // Set-up is timed in kSetupBursts bursts, a second apart, and the last
  // rig serves the run. Within a burst set-up times agree; from one second
  // to the next they drift with the host's load, so the median over
  // several bursts repeats better than one burst's.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int b = 0; b < kSetupBursts; ++b) {
    if (b > 0) std::this_thread::sleep_for(std::chrono::seconds(1));
    for (int s = 0; s < kSetupsPerBurst; ++s) {
      rig.reset();  // the previous rig's threads, sockets and WAL go first
      rig = std::make_unique<Rig>();
      Status built = w.wal ? ResetWalDir(wal_dir) : Status::OK();
      const int64_t t0 = NowNs();
      if (built.ok()) built = BuildRig(w, in, traced, wal_dir, rig.get());
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!built.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n", built.ToString().c_str());
        return 1;
      }
    }
  }
  const auto client_counters = [&] {
    std::vector<AgentClient::Counters> out;
    for (Agent& a : rig->agents) out.push_back(a.client->counters());
    return out;
  };

  Driver driver{w, in, *rig};
  driver.expected = std::move(expected);
  // Window fill and warm-up: two input cycles (more than W rounds),
  // unmeasured, checked.
  for (int r = 0; r < 2 * w.input_ticks; ++r) {
    driver.Round(/*measured=*/false, /*traced=*/false, nullptr);
    driver.CheckRound();
  }

  const auto counters0 = client_counters();
  std::vector<qlove::engine::EngineStats> stats0;
  for (Agent& a : rig->agents) stats0.push_back(a.engine->Stats());
  const auto health0 = rig->aggregator->FleetHealth();

  // A traced run splits its time between an untraced and a traced phase;
  // the difference in events_per_s between them is the tracing overhead.
  const double phase_seconds = traced ? args.seconds / 2 : args.seconds;
  PhaseResult untraced;
  PhaseResult traced_phase;
  driver.Measure(phase_seconds, /*traced=*/false, &untraced);
  if (traced) {
    const Status shadow = StartShadow(rig.get());
    if (!shadow.ok()) {
      std::fprintf(stderr, "shadow aggregator: %s\n",
                   shadow.ToString().c_str());
      return 1;
    }
    driver.Measure(phase_seconds, /*traced=*/true, &traced_phase);
  }
  const PhaseResult& last = traced ? traced_phase : untraced;

  // Reconciliation: per agent-tick, the spans must add up to visible_us.
  double residual_abs = 0.0;
  double visible_sum = 0.0;
  if (traced) {
    for (double r : traced_phase.residual_us.values()) {
      residual_abs += std::fabs(r);
    }
    for (double v : traced_phase.visible_us.values()) visible_sum += v;
    driver.acc.checks += 1;
    if (Percentile(traced_phase.residual_us, 0.99) > kResidualP99Us ||
        residual_abs > kResidualShare * visible_sum) {
      driver.acc.Fail("trace: spans do not reconcile with visible_us");
    }
  }

  // Transport verdicts: on lossless loopback every delivery after the
  // first full frame is one clean ack.
  const auto counters1 = client_counters();
  int64_t transport_faults = 0;
  int64_t resyncs = 0;
  for (size_t a = 0; a < counters1.size(); ++a) {
    const auto& c0 = counters0[a];
    const auto& c1 = counters1[a];
    resyncs += c1.resyncs - c0.resyncs;
    transport_faults += (c1.naks - c0.naks) + (c1.resyncs - c0.resyncs) +
                        (c1.retries - c0.retries) +
                        (c1.reconnects - c0.reconnects) +
                        (c1.ack_errors - c0.ack_errors) +
                        (c1.connect_failures - c0.connect_failures);
  }
  driver.ops.deliver_failed += transport_faults;
  if (transport_faults > 0) {
    driver.acc.Note("transport: " + std::to_string(transport_faults) +
                    " naks/resyncs/retries after the first frame");
  }
  int64_t wal_failures = 0;
  int64_t ring_full_stalls = 0;
  int64_t engine_wal_bytes = 0;
  double state_bytes = 0.0;
  int64_t metrics = 0;
  for (size_t a = 0; a < rig->agents.size(); ++a) {
    const auto stats = rig->agents[a].engine->Stats();
    wal_failures += stats.wal_append_failures - stats0[a].wal_append_failures;
    ring_full_stalls +=
        stats.counters.ring_full_stalls - stats0[a].counters.ring_full_stalls;
    engine_wal_bytes += stats.wal_bytes - stats0[a].wal_bytes;
    state_bytes += static_cast<double>(stats.total_memory_bytes);
    metrics += static_cast<int64_t>(stats.metric_count);
  }
  const auto health1 = rig->aggregator->FleetHealth();
  wal_failures += health1.wal_append_failures - health0.wal_append_failures;
  driver.ops.tick_failed += wal_failures;
  if (wal_failures > 0) driver.acc.Note("WAL append failures");

  const Ops& ops = driver.ops;
  const Accuracy& acc = driver.acc;
  const int64_t attempted = ops.attempted() + acc.checks;
  const int64_t failed = ops.failed() + acc.failed;
  std::fprintf(stderr,
               "operations: record %lld/%lld failed, flush+tick %lld/%lld, "
               "deliver %lld/%lld, query %lld/%lld, checks %lld/%lld\n",
               static_cast<long long>(ops.record_failed),
               static_cast<long long>(ops.record),
               static_cast<long long>(ops.tick_failed),
               static_cast<long long>(ops.tick),
               static_cast<long long>(ops.deliver_failed),
               static_cast<long long>(ops.deliver),
               static_cast<long long>(ops.query_failed),
               static_cast<long long>(ops.query),
               static_cast<long long>(acc.failed),
               static_cast<long long>(acc.checks));
  for (const std::string& f : acc.failures) {
    std::fprintf(stderr, "  FAILED %s\n", f.c_str());
  }
  std::fprintf(stderr,
               "tightest check: rank error at %.1f%% of tolerance (Level-2 "
               "quantiles: %.1f%%)\n",
               100 * acc.tightest, 100 * acc.tightest_level2);
  for (const auto& [label, worst] : acc.worst) {
    std::fprintf(stderr,
                 "accuracy %s: worst p99 %.1f vs exact %.1f (%.2f%%, %s), "
                 "worst p99.9 %.1f vs exact %.1f (%.2f%%, %s), sample-k "
                 "%lld of %lld high answers\n",
                 label.c_str(), worst.estimate[0], worst.exact[0],
                 100 * worst.rel_err[0],
                 qlove::core::OutcomeSourceName(
                     static_cast<qlove::core::OutcomeSource>(worst.source[0])),
                 worst.estimate[1], worst.exact[1], 100 * worst.rel_err[1],
                 qlove::core::OutcomeSourceName(
                     static_cast<qlove::core::OutcomeSource>(worst.source[1])),
                 static_cast<long long>(worst.samplek_answers),
                 static_cast<long long>(worst.high_answers));
  }
  std::fprintf(stderr,
               "visible_us: p50 %.0f p90 %.0f p95 %.0f p99 %.0f max %.0f\n",
               Percentile(last.visible_us, 0.5), Percentile(last.visible_us, 0.9),
               Percentile(last.visible_us, 0.95),
               Percentile(last.visible_us, 0.99), Percentile(last.visible_us, 1));
  std::fprintf(stderr, "setup_s: min %.5f median %.5f max %.5f\n",
               Percentile(setup_s, 0), Percentile(setup_s, 0.5),
               Percentile(setup_s, 1));
  std::fprintf(stderr,
               "timed: %lld agent-ticks, %zu query samples kept, %.2f s; "
               "setup median "
               "of %d\n",
               static_cast<long long>(last.agent_ticks), last.query_us.size(),
               static_cast<double>(last.wall_ns) / 1e9,
               kSetupsPerBurst * kSetupBursts);

  const double untraced_eps = static_cast<double>(untraced.events) /
                              (static_cast<double>(untraced.wall_ns) / 1e9);
  const double untraced_cpu_ns = static_cast<double>(untraced.cpu_ns) /
                                 static_cast<double>(untraced.events);
  const double probe_us = Percentile(untraced.probe_us, 0.5);
  // Host speed: the quietest tenth of the run, its times scaled by the
  // probe's nominal over its median there.
  const QuietCost quiet = ReportedCost(untraced);
  const double to_ref = HostProbe::kNominalUs / quiet.probe_us;
  std::fprintf(stderr,
               "host probe: median %.2f us, %.2f over the quietest %zu of "
               "%zu slices (nominal %.2f, check %u); cpu_ns_per_event %.1f "
               "raw, %.1f quiet; query_us_p50 %.3f raw, %.3f quiet\n",
               probe_us, quiet.probe_us, quiet.slices, untraced.slice_count,
               HostProbe::kNominalUs, driver.probe.sink(), untraced_cpu_ns,
               quiet.cpu_ns_per_event, Percentile(untraced.query_us, 0.5),
               quiet.query_us_p50);
  std::vector<Metric> out;
  if (!traced) {
    out = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"cpu_ns_per_event_at_ref", quiet.cpu_ns_per_event * to_ref, "ns"},
        {"query_us_p50_at_ref", quiet.query_us_p50 * to_ref, "us"},
        {"wire_bytes_per_tick",
         static_cast<double>(untraced.wire_bytes) /
             static_cast<double>(untraced.agent_ticks),
         "bytes"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  } else {
    const double traced_eps =
        static_cast<double>(traced_phase.events) /
        (static_cast<double>(traced_phase.wall_ns) / 1e9);
    // End-to-end figures too unsteady on a shared host to bound (README
    // "Why these end-to-end metrics"), from the untraced half.
    out = {
        {"e2e.events_per_s", untraced_eps, "1/s"},
        {"e2e.cpu_ns_per_event", untraced_cpu_ns, "ns"},
        {"e2e.query_us_p50", Percentile(untraced.query_us, 0.5), "us"},
        {"host.probe_us", probe_us, "us"},
        {"e2e.visible_us_p50", Percentile(untraced.visible_us, 0.5), "us"},
        {"e2e.visible_us_p90", Percentile(untraced.visible_us, 0.9), "us"},
        {"e2e.visible_us_p99", Percentile(untraced.visible_us, 0.99), "us"},
        {"e2e.query_us_p99", Percentile(untraced.query_us, 0.99), "us"},
        {"engine.record_ns_per_event",
         static_cast<double>(traced_phase.record_ns) /
             static_cast<double>(traced_phase.events),
         "ns"},
        {"engine.tick_us_p50", Percentile(traced_phase.tick_us, 0.5), "us"},
        {"engine.tick_us_p99", Percentile(traced_phase.tick_us, 0.99), "us"},
        {"engine.state_bytes_per_metric",
         state_bytes / static_cast<double>(std::max<int64_t>(1, metrics)),
         "bytes"},
        {"engine.ring_full_stalls", static_cast<double>(ring_full_stalls),
         "count"},
        {"engine.wal_bytes_per_tick",
         static_cast<double>(engine_wal_bytes) /
             static_cast<double>(untraced.agent_ticks +
                                 traced_phase.agent_ticks),
         "bytes"},
        {"wire.export_us_p50", Percentile(traced_phase.export_us, 0.5), "us"},
        {"wire.delta_frame_share",
         static_cast<double>(health1.delta_ingests - health0.delta_ingests) /
             static_cast<double>(
                 std::max<int64_t>(1, health1.ingests - health0.ingests)),
         "ratio"},
        {"net.deliver_us_p50", Percentile(traced_phase.deliver_net_us, 0.5),
         "us"},
        {"net.resyncs", static_cast<double>(resyncs), "count"},
        {"aggregator.ingest_us_p50", Percentile(traced_phase.ingest_us, 0.5),
         "us"},
        {"aggregator.wal_bytes_per_tick",
         static_cast<double>(health1.wal_bytes - health0.wal_bytes) /
             static_cast<double>(untraced.agent_ticks +
                                 traced_phase.agent_ticks),
         "bytes"},
        {"aggregator.query_key_us_p50",
         Percentile(traced_phase.query_key_us, 0.5), "us"},
        {"aggregator.query_rollup_us_p50",
         Percentile(traced_phase.query_rollup_us, 0.5), "us"},
        {"query.rank_err_max", acc.rank_err_max, "ratio"},
        {"query.rel_value_err_p99", acc.rel_err_p99, "ratio"},
        {"query.rel_value_err_p999", acc.rel_err_p999, "ratio"},
        {"query.value_bound_misses",
         static_cast<double>(acc.value_bound_misses), "count"},
        {"query.samplek_share",
         static_cast<double>(acc.samplek_answers) /
             static_cast<double>(std::max<int64_t>(1, acc.high_answers)),
         "ratio"},
        {"trace.overhead_pct", 100.0 * (untraced_eps - traced_eps) / untraced_eps,
         "%"},
        {"trace.residual_us_p99", Percentile(traced_phase.residual_us, 0.99),
         "us"},
        {"trace.unreconciled_share", residual_abs / visible_sum, "ratio"},
    };
    // Spans, written once at the end.
    const std::string path = args.work_dir + "/spans-" + w.name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      for (const Span& s : traced_phase.spans) {
        std::fprintf(f,
                     "{\"agent\":%d,\"tick\":%lld,\"layer\":\"%s\","
                     "\"parent\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     s.agent, static_cast<long long>(s.tick), s.layer, s.parent,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
      std::fclose(f);
      std::fprintf(stderr, "spans: %zu written to %s\n",
                   traced_phase.spans.size(), path.c_str());
    }
  }
  rig.reset();
  if (w.wal) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }
  std::printf("%s\n", Json(out, acc.failed == 0, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
