// Closed-loop live TIV monitor benchmark (see README.md in this directory).
//
// One process, one driver thread, run the way a TIV-aware system runs the
// monitor: hand an epoch of delay samples to DelayStream::ingest, commit
// the epoch, repair the engine (ShardStreamEngine out of core, or
// IncrementalSeverity in memory), then issue the epoch's severity reads.
// The next epoch is sent only after all of that returned — both engines
// are synchronous single-writer objects. The parallel pool keeps its
// hardware-default width, except in the traced run's 1/2/4-thread legs.
//
// Everything random (the delay space, every epoch's samples, the read
// mix) is generated from --seed before any timer starts. Each layer is
// timed from outside, around calls into its public functions; per-layer
// times come from the program's own span tracer (obs::SpanTracer, attached
// only in the traced run) and its metrics registry.
//
// Usage (normally through run.py next to this file):
//   live_monitor_bench --workload W --seed S --seconds T --trace 0|1
//                      --dir SCRATCH_DIR --counts-file PATH
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer ledger
// with --trace 1. The exit status is 0 only when every correctness check
// passed.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/delay_stream.hpp"
#include "stream/incremental_severity.hpp"
#include "stream/shard_stream.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tiv::Rng;
using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DatasetId;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::HostId;
using tiv::stream::DelaySample;
using tiv::stream::DelayStream;
using tiv::stream::EstimatorParams;
using tiv::stream::IncrementalSeverity;
using tiv::stream::ShardStreamConfig;
using tiv::stream::ShardStreamEngine;
using tiv::stream::SmoothingPolicy;
using Edge = std::pair<HostId, HostId>;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kTileDim = 64;
constexpr std::size_t kSetupReps = 7;        // timed; one untimed rep first
constexpr std::size_t kMinTimedEpochs = 100;  // >= 10 epochs beyond p90
constexpr std::size_t kMinTimedReads = 1000;  // >= 10 reads beyond p99
constexpr std::size_t kMinLegEpochs = 10;     // per traced thread leg
constexpr std::size_t kWatchEdges = 16;       // edges per explain call
constexpr std::size_t kWatchLists = 64;
constexpr std::size_t kSteadySamples = 100000;
constexpr std::size_t kSteadyPool = 8;  // steady epochs repeat as a cycle
constexpr std::size_t kStormEdges = 100;
constexpr std::size_t kStormLosses = 3;
constexpr float kEwmaAlpha = EstimatorParams{}.ewma_alpha;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t edge_key(HostId a, HostId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- Workloads -----------------------------------------------------------

enum class Kind { kSteady, kStorm, kInmem };

struct Workload {
  Kind kind;
  DatasetId dataset;
  HostId n;
  SmoothingPolicy policy;
  std::size_t reads_per_epoch;
  std::size_t warmup_epochs;

  bool out_of_core() const { return kind != Kind::kInmem; }
};

Workload workload_by_name(const std::string& name) {
  // Steady warms up one full pool cycle (every edge it will ever sample
  // is then in the estimator tables, so they stop growing) plus a few
  // epochs for the caches; the other two insert ~100 estimators per epoch
  // throughout, which is part of their steady state.
  if (name == "monitor_steady") {
    return {Kind::kSteady, DatasetId::kDs2, 1024, SmoothingPolicy::kLatest,
            64, kSteadyPool + 4};
  }
  if (name == "monitor_storm") {
    return {Kind::kStorm, DatasetId::kP2psim, 1024, SmoothingPolicy::kEwma,
            24, 8};
  }
  if (name == "inmem_analysis") {
    return {Kind::kInmem, DatasetId::kDs2, 2048, SmoothingPolicy::kLatest,
            16, 8};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// One epoch of pre-generated load. Sample timestamps are stamped when the
/// epoch is sent (the steady pool is replayed cyclically).
struct EpochLoad {
  std::vector<DelaySample> samples;
  std::vector<HostId> reads;  ///< host of each severity-row read
};

struct Load {
  DelayMatrix base;
  std::vector<EpochLoad> epochs;
  bool cyclic = false;
  /// inmem_analysis: the explain watch-lists the traced run probes.
  std::vector<std::vector<Edge>> watch_lists;

  EpochLoad& epoch(std::size_t k) {
    if (cyclic) return epochs[k % epochs.size()];
    if (k >= epochs.size()) throw std::logic_error("epoch load exhausted");
    return epochs[k];
  }
};

/// Zipf(1) popularity over a seeded permutation of [0, n).
class Zipf {
 public:
  Zipf(std::uint32_t n, Rng& rng) : perm_(n), cdf_(n) {
    for (std::uint32_t i = 0; i < n; ++i) perm_[i] = i;
    rng.shuffle(perm_);
    double acc = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      acc += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }

  std::uint32_t draw(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), perm_.size() - 1);
    return perm_[rank];
  }

 private:
  std::vector<std::uint32_t> perm_;
  std::vector<double> cdf_;
};

/// A uniformly random measured edge whose endpoints are both unused;
/// marks them used.
Edge pick_free_edge(const DelayMatrix& m, Rng& rng,
                    std::vector<std::uint8_t>& used) {
  const HostId n = m.size();
  for (;;) {
    const auto a = static_cast<HostId>(rng.uniform_index(n));
    const auto b = static_cast<HostId>(rng.uniform_index(n));
    if (a == b || used[a] || used[b] || !m.has(a, b)) continue;
    used[a] = used[b] = 1;
    return {a, b};
  }
}

Edge pick_measured_edge(const DelayMatrix& m, Rng& rng) {
  const HostId n = m.size();
  for (;;) {
    const auto a = static_cast<HostId>(rng.uniform_index(n));
    const auto b = static_cast<HostId>(rng.uniform_index(n));
    if (a != b && m.has(a, b)) return {a, b};
  }
}

DelaySample sample(Edge e, float delay_ms) {
  return {e.first, e.second, delay_ms, 0.0};
}

/// monitor_steady: a cycle of kSteadyPool epochs. Epoch j inflates the two
/// edges of P_j and restores P_{j-1} to its base delay (8 dirty hosts,
/// <= 1% of 1024), and re-reports ~100k other measured edges at their
/// current delay, which leaves them clean. Because every epoch restores
/// what the previous one inflated, the cycle repeats the same epochs
/// forever, so a run of any length is stationary.
void generate_steady(const Workload& w, Rng& rng, const Zipf& zipf,
                     Load& load) {
  const DelayMatrix& base = load.base;
  std::vector<std::uint8_t> used(w.n, 0);
  std::vector<std::array<Edge, 2>> changed(kSteadyPool);
  std::vector<std::array<float, 2>> inflated(kSteadyPool);
  std::unordered_set<std::uint64_t> changed_keys;
  for (std::size_t j = 0; j < kSteadyPool; ++j) {
    for (int i = 0; i < 2; ++i) {
      const Edge e = pick_free_edge(base, rng, used);
      changed[j][i] = e;
      inflated[j][i] = static_cast<float>(base.at(e.first, e.second) *
                                          rng.uniform(1.5, 3.0));
      changed_keys.insert(edge_key(e.first, e.second));
    }
  }
  load.cyclic = true;
  load.epochs.resize(kSteadyPool);
  for (std::size_t j = 0; j < kSteadyPool; ++j) {
    EpochLoad& ep = load.epochs[j];
    ep.samples.reserve(kSteadySamples);
    const std::size_t prev = (j + kSteadyPool - 1) % kSteadyPool;
    for (int i = 0; i < 2; ++i) {
      const Edge e = changed[prev][i];
      ep.samples.push_back(sample(e, base.at(e.first, e.second)));
      ep.samples.push_back(sample(changed[j][i], inflated[j][i]));
    }
    while (ep.samples.size() < kSteadySamples) {
      const Edge e = pick_measured_edge(base, rng);
      if (changed_keys.count(edge_key(e.first, e.second)) != 0) continue;
      ep.samples.push_back(sample(e, base.at(e.first, e.second)));
    }
    for (std::size_t r = 0; r < w.reads_per_epoch; ++r) {
      ep.reads.push_back(zipf.draw(rng));
    }
  }
}

/// monitor_storm: every epoch re-measures kStormEdges edges with disjoint
/// endpoints (~200 dirty hosts, 19.5% of 1024) through EWMA estimators.
/// Each edge alternates an inflating sample (1.3-3x its base delay) and a
/// relaxing one (its base delay), so every sample moves the estimate;
/// kStormLosses edges are reported lost (measured -> missing) and are
/// re-measured in the next epoch (missing -> measured).
void generate_storm(const Workload& w, Rng& rng, const Zipf& zipf,
                    std::size_t epochs, Load& load) {
  const DelayMatrix& base = load.base;
  std::unordered_map<std::uint64_t, std::uint8_t> inflate_next;
  std::vector<Edge> lost;
  load.epochs.resize(epochs);
  for (EpochLoad& ep : load.epochs) {
    std::vector<std::uint8_t> used(w.n, 0);
    for (const Edge& e : lost) {
      used[e.first] = used[e.second] = 1;
      ep.samples.push_back(sample(e, base.at(e.first, e.second)));
      inflate_next[edge_key(e.first, e.second)] = 1;
    }
    lost.clear();
    while (ep.samples.size() < kStormEdges) {
      const Edge e = pick_free_edge(base, rng, used);
      const std::uint64_t key = edge_key(e.first, e.second);
      if (lost.size() < kStormLosses) {
        lost.push_back(e);
        inflate_next.erase(key);
        ep.samples.push_back(sample(e, DelayMatrix::kMissing));
        continue;
      }
      auto [it, fresh] = inflate_next.try_emplace(key, 1);
      const float b = base.at(e.first, e.second);
      ep.samples.push_back(sample(
          e, it->second != 0 ? static_cast<float>(b * rng.uniform(1.3, 3.0))
                             : b));
      it->second ^= 1;
    }
    rng.shuffle(ep.samples);
    for (std::size_t r = 0; r < w.reads_per_epoch; ++r) {
      ep.reads.push_back(zipf.draw(rng));
    }
  }
}

/// inmem_analysis: every epoch re-measures 21-51 edges with disjoint
/// endpoints at 0.8-2x their base delay (42-102 dirty hosts, 2-5% of
/// 2048). The edge counts are stratified: each run of 31 consecutive
/// epochs holds every count once, in shuffled order, so the epoch-time
/// distribution of a run does not hinge on the seed's draws. Reads are
/// rows of the in-memory severity matrix for Zipf-popular hosts.
void generate_inmem(const Workload& w, Rng& rng, const Zipf& zipf,
                    std::size_t epochs, Load& load) {
  constexpr std::size_t kMinEdges = 21;
  constexpr std::size_t kMaxEdges = 51;
  const DelayMatrix& base = load.base;
  load.watch_lists.resize(kWatchLists);
  for (auto& list : load.watch_lists) {
    for (std::size_t i = 0; i < kWatchEdges; ++i) {
      list.push_back(pick_measured_edge(base, rng));
    }
  }
  load.epochs.resize(epochs);
  std::vector<std::size_t> counts;
  for (EpochLoad& ep : load.epochs) {
    if (counts.empty()) {
      for (std::size_t c = kMinEdges; c <= kMaxEdges; ++c) counts.push_back(c);
      rng.shuffle(counts);
    }
    const std::size_t edges = counts.back();
    counts.pop_back();
    std::vector<std::uint8_t> used(w.n, 0);
    for (std::size_t i = 0; i < edges; ++i) {
      const Edge e = pick_free_edge(base, rng, used);
      ep.samples.push_back(sample(
          e, static_cast<float>(base.at(e.first, e.second) *
                                rng.uniform(0.8, 2.0))));
    }
    for (std::size_t r = 0; r < w.reads_per_epoch; ++r) {
      ep.reads.push_back(zipf.draw(rng));
    }
  }
}

Load generate(const Workload& w, std::uint64_t seed, std::size_t epochs) {
  // The AS topology stays the preset's own; the seed places the hosts
  // and draws their access delays and noise. A fresh 128-AS topology per
  // seed swings the violation density (and with it the kernel's epoch
  // time) by +-10%, which would drown the changes this benchmark exists
  // to see; host placement alone keeps each preset's character.
  auto params = tiv::delayspace::dataset_params(w.dataset, w.n);
  params.hosts.seed = mix_seed(seed, 2);
  Load load;
  load.base = tiv::delayspace::generate_delay_space(params).measured;
  Rng rng(mix_seed(seed, 3));
  const Zipf zipf(w.n, rng);
  switch (w.kind) {
    case Kind::kSteady:
      generate_steady(w, rng, zipf, load);
      break;
    case Kind::kStorm:
      generate_storm(w, rng, zipf, epochs, load);
      break;
    case Kind::kInmem:
      generate_inmem(w, rng, zipf, epochs, load);
      break;
  }
  return load;
}

// ---- The system under test ----------------------------------------------

/// Cache budgets of the out-of-core engine: about a quarter of the packed
/// input view and a quarter of the severity sink.
std::size_t input_budget(HostId n) {
  const std::size_t bands = (n + kTileDim - 1) / kTileDim;
  const std::size_t tile = std::size_t{kTileDim} * kTileDim * sizeof(float) +
                           std::size_t{kTileDim} * ((kTileDim + 63) / 64) *
                               sizeof(std::uint64_t);
  return bands * bands * tile / 4;
}
std::size_t output_budget(HostId n) {
  const std::size_t bands = (n + kTileDim - 1) / kTileDim;
  const std::size_t tile = std::size_t{kTileDim} * kTileDim * sizeof(float);
  return bands * (bands + 1) / 2 * tile / 4;
}

/// Deterministic per-epoch counts, summed.
struct Counts {
  std::size_t samples_sent = 0;
  std::size_t samples_applied = 0;
  std::size_t rejected = 0;
  std::size_t edges_touched = 0;
  std::size_t dirty_hosts = 0;
  std::size_t edges_recomputed = 0;
  std::size_t tiles_repacked = 0;
  std::size_t sink_tiles_committed = 0;
  std::size_t rows_repacked = 0;

  void add(const Counts& o) {
    samples_sent += o.samples_sent;
    samples_applied += o.samples_applied;
    rejected += o.rejected;
    edges_touched += o.edges_touched;
    dirty_hosts += o.dirty_hosts;
    edges_recomputed += o.edges_recomputed;
    tiles_repacked += o.tiles_repacked;
    sink_tiles_committed += o.sink_tiles_committed;
    rows_repacked += o.rows_repacked;
  }
};

/// Latencies and counts of one stretch of epochs.
struct Leg {
  std::vector<double> epoch_ms;
  std::vector<double> read_us;
  double busy_ms = 0.0;  ///< summed epoch + read wall time
  Counts counts;
  std::size_t epochs_failed = 0;
  std::size_t reads_failed = 0;
};

class Monitor {
 public:
  Monitor(const Workload& w, Load& load, const std::string& dir)
      : w_(w),
        load_(load),
        stream_(load.base, EstimatorParams{w.policy}),
        row_(w.n) {
    cfg_.tile_dim = kTileDim;
    cfg_.input_budget_bytes = input_budget(w.n);
    cfg_.output_budget_bytes = output_budget(w.n);
    cfg_.input_path = (std::filesystem::path(dir) / "input.tiles").string();
    cfg_.sink_path = (std::filesystem::path(dir) / "sink.tiles").string();
  }

  /// Builds the engine from the stream's (still unmodified) matrix: the
  /// spill plus the full out-of-core build, or the pack plus
  /// all_severities. Returns seconds.
  double setup() {
    engine_.reset();
    inmem_.reset();
    const auto t0 = Clock::now();
    if (w_.out_of_core()) {
      engine_.emplace(stream_.matrix(), cfg_);
    } else {
      inmem_.emplace(stream_.matrix());
    }
    return ms_between(t0, Clock::now()) / 1e3;
  }

  /// Sends epoch `k` and its reads; appends to `leg`. An operation that
  /// throws counts as failed and the run goes on.
  void run_epoch(std::size_t k, Leg& leg) {
    EpochLoad& ep = load_.epoch(k);
    for (DelaySample& s : ep.samples) s.timestamp = static_cast<double>(k);
    executed_.push_back(k);
    Counts c;
    c.samples_sent = ep.samples.size();
    const auto t0 = Clock::now();
    try {
      tiv::obs::Span epoch_span("bench.epoch");
      {
        tiv::obs::Span span("bench.ingest");
        stream_.ingest(ep.samples);
      }
      tiv::stream::Epoch epoch;
      {
        tiv::obs::Span span("bench.commit");
        epoch = stream_.commit_epoch();
      }
      {
        tiv::obs::Span span("bench.apply");
        if (w_.out_of_core()) {
          const auto st = engine_->apply_epoch(stream_.matrix(),
                                               epoch.dirty_hosts);
          c.edges_recomputed = st.edges_recomputed;
          c.tiles_repacked = st.input_tiles_repacked;
          c.sink_tiles_committed = st.severity_tiles_committed;
        } else {
          const auto st = inmem_->apply_epoch(stream_.matrix(),
                                              epoch.dirty_hosts);
          c.edges_recomputed = st.edges_recomputed;
          c.rows_repacked = st.rows_repacked;
        }
      }
      c.samples_applied = epoch.stats.samples_applied;
      c.rejected = epoch.stats.samples_rejected();
      c.edges_touched = epoch.stats.edges_touched;
      c.dirty_hosts = epoch.dirty_hosts.size();
    } catch (const std::exception& e) {
      std::cerr << "epoch " << k << " failed: " << e.what() << "\n";
      ++leg.epochs_failed;
    }
    const auto t1 = Clock::now();
    leg.epoch_ms.push_back(ms_between(t0, t1));
    leg.busy_ms += ms_between(t0, t1);
    leg.counts.add(c);
    epoch_counts_.push_back(c);

    served_.resize(ep.reads.size());
    for (std::size_t i = 0; i < ep.reads.size(); ++i) {
      const auto q0 = Clock::now();
      try {
        tiv::obs::Span span("bench.read");
        read(ep.reads[i], served_[i]);
      } catch (const std::exception& e) {
        std::cerr << "read failed: " << e.what() << "\n";
        ++leg.reads_failed;
      }
      const auto q1 = Clock::now();
      leg.read_us.push_back(ms_between(q0, q1) * 1e3);
      leg.busy_ms += ms_between(q0, q1);
    }
  }

  /// Runs epochs from `next` until at least `seconds` have passed and the
  /// minimum epoch and read counts are met.
  Leg run_leg(std::size_t& next, double seconds, std::size_t min_epochs,
              std::size_t min_reads) {
    Leg leg;
    const auto t0 = Clock::now();
    while (leg.epoch_ms.size() < min_epochs || leg.read_us.size() < min_reads ||
           ms_between(t0, Clock::now()) < seconds * 1e3) {
      run_epoch(next++, leg);
    }
    return leg;
  }

  const std::vector<Counts>& epoch_counts() const { return epoch_counts_; }

  /// Mean latency of one explain call (TivAnalyzer::edge_stats_batch over
  /// a watch-list, against the maintained view), in us, over every
  /// watch-list once; 0 without watch-lists.
  double explain_call_us() {
    if (load_.watch_lists.empty()) return 0.0;
    const TivAnalyzer analyzer(stream_.matrix());
    const auto t0 = Clock::now();
    for (const auto& list : load_.watch_lists) {
      analyzer.edge_stats_batch(list, &inmem_->view());
    }
    return ms_between(t0, Clock::now()) * 1e3 /
           static_cast<double>(load_.watch_lists.size());
  }

  /// End-of-run correctness, outside any timed region. Returns the list of
  /// failed checks (empty when everything holds).
  std::vector<std::string> verify() {
    std::vector<std::string> failures;
    check_matrix(failures);
    const SeverityMatrix want = TivAnalyzer(stream_.matrix()).all_severities();
    const HostId n = w_.n;
    std::size_t mismatches = 0;
    if (w_.out_of_core()) {
      for (HostId a = 0; a < n; ++a) {
        engine_->severity_row(a, row_);
        for (HostId b = 0; b < n; ++b) {
          mismatches += std::bit_cast<std::uint32_t>(row_[b]) !=
                        std::bit_cast<std::uint32_t>(want.at(a, b));
        }
      }
      const auto in = engine_->input_cache_stats();
      const auto out = engine_->output_cache_stats();
      if (in.peak_bytes > cfg_.input_budget_bytes) {
        failures.push_back("input cache peak " + std::to_string(in.peak_bytes) +
                           " B over budget");
      }
      if (out.peak_bytes > cfg_.output_budget_bytes) {
        failures.push_back("sink cache peak " + std::to_string(out.peak_bytes) +
                           " B over budget");
      }
    } else {
      const SeverityMatrix& got = inmem_->severities();
      for (HostId a = 0; a < n; ++a) {
        for (HostId b = 0; b < n; ++b) {
          mismatches += std::bit_cast<std::uint32_t>(got.at(a, b)) !=
                        std::bit_cast<std::uint32_t>(want.at(a, b));
        }
      }
      std::size_t explain_bad = 0;
      const TivAnalyzer analyzer(stream_.matrix());
      for (const auto& list : load_.watch_lists) {
        const auto stats = analyzer.edge_stats_batch(list, &inmem_->view());
        for (std::size_t i = 0; i < list.size(); ++i) {
          explain_bad += std::bit_cast<std::uint32_t>(
                             static_cast<float>(stats[i].severity)) !=
                         std::bit_cast<std::uint32_t>(
                             want.at(list[i].first, list[i].second));
        }
      }
      if (explain_bad != 0) {
        failures.push_back(std::to_string(explain_bad) +
                           " explain severities differ from all_severities");
      }
    }
    if (mismatches != 0) {
      failures.push_back(std::to_string(mismatches) +
                         " severity cells differ from all_severities");
    }
    if (const std::size_t stale = stale_reads(want); stale != 0) {
      failures.push_back(std::to_string(stale) +
                         " cells served by the last epoch's reads differ "
                         "from all_severities");
    }
    std::size_t rejected = 0;
    for (const Counts& c : epoch_counts_) rejected += c.rejected;
    if (rejected != 0) {
      failures.push_back(std::to_string(rejected) + " samples rejected");
    }
    return failures;
  }

 private:
  /// One read call: severity row `a`, into `out` for verify().
  void read(HostId a, std::vector<float>& out) {
    out.resize(w_.n);
    if (w_.out_of_core()) {
      engine_->severity_row(a, out);
    } else {
      const SeverityMatrix& sev = inmem_->severities();
      for (HostId b = 0; b < w_.n; ++b) out[b] = sev.at(a, b);
    }
  }

  /// Cells the last epoch's reads returned that differ from `want`.
  std::size_t stale_reads(const SeverityMatrix& want) const {
    const std::vector<HostId>& reads = load_.epoch(executed_.back()).reads;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      for (HostId b = 0; b < w_.n; ++b) {
        bad += std::bit_cast<std::uint32_t>(served_[i][b]) !=
               std::bit_cast<std::uint32_t>(want.at(reads[i], b));
      }
    }
    return bad;
  }

  /// Replays every executed epoch through a reference estimator model and
  /// compares the stream's matrix: exact for kLatest, within 1e-5
  /// relative for EWMA (the model folds in double).
  void check_matrix(std::vector<std::string>& failures) {
    DelayMatrix want = load_.base;
    std::unordered_map<std::uint64_t, double> ewma;
    const bool latest = w_.policy == SmoothingPolicy::kLatest;
    for (const std::size_t k : executed_) {
      for (const DelaySample& s : load_.epoch(k).samples) {
        if (s.delay_ms < 0.0f) {
          want.set_missing(s.a, s.b);
          ewma.erase(edge_key(s.a, s.b));
        } else if (latest) {
          want.set(s.a, s.b, s.delay_ms);
        } else {
          auto [it, fresh] = ewma.try_emplace(edge_key(s.a, s.b), s.delay_ms);
          if (!fresh) {
            it->second = kEwmaAlpha * s.delay_ms + (1.0 - kEwmaAlpha) * it->second;
          }
          want.set(s.a, s.b, static_cast<float>(it->second));
        }
      }
    }
    const DelayMatrix& got = stream_.matrix();
    std::size_t bad = 0;
    for (HostId a = 0; a < w_.n; ++a) {
      for (HostId b = 0; b < w_.n; ++b) {
        const float x = got.at(a, b);
        const float y = want.at(a, b);
        if (latest || (x < 0.0f) != (y < 0.0f) || y < 0.0f) {
          bad += std::bit_cast<std::uint32_t>(x) !=
                 std::bit_cast<std::uint32_t>(y);
        } else {
          bad += std::fabs(x - y) > 1e-5f * std::max(1.0f, y);
        }
      }
    }
    if (bad != 0) {
      failures.push_back(std::to_string(bad) +
                         " matrix entries differ from the reference ingest");
    }
  }

  const Workload& w_;
  Load& load_;
  DelayStream stream_;
  ShardStreamConfig cfg_;
  std::optional<ShardStreamEngine> engine_;
  std::optional<IncrementalSeverity> inmem_;
  std::vector<float> row_;
  std::vector<std::size_t> executed_;
  std::vector<Counts> epoch_counts_;
  std::vector<std::vector<float>> served_;  ///< the last epoch's reads
};

// ---- Statistics and output ------------------------------------------------

/// Nearest-rank quantile: with N samples, N - ceil(q * N) lie beyond it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// FNV-1a over the warm-up epochs' deterministic counts.
std::uint64_t fingerprint(const std::vector<Counts>& counts, std::size_t epochs,
                          HostId n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t e = 0; e < epochs && e < counts.size(); ++e) {
    fold(counts[e].dirty_hosts);
    fold(counts[e].edges_recomputed);
    fold(std::uint64_t{counts[e].edges_recomputed} * n);  // witness ops
  }
  return h;
}

/// Checks `print` against the fingerprint an earlier run of the same
/// workload and seed recorded in `path` (records it if none). Returns
/// false on a mismatch.
bool same_counts_as_before(const std::string& path, const std::string& key,
                           std::uint64_t print) {
  if (path.empty()) return true;
  {
    std::ifstream in(path);
    std::string k;
    std::uint64_t v = 0;
    while (in >> k >> v) {
      if (k == key) return v == print;
    }
  }
  std::ofstream(path, std::ios::app) << key << " " << print << "\n";
  return true;
}

// ---- Traced run -------------------------------------------------------------

/// Per-layer times of one traced leg, per epoch, in ms.
struct LayerTimes {
  double epoch = 0, ingest = 0, commit = 0, apply = 0, repack = 0,
         band_pair = 0, sink_commit = 0, read_us = 0;
};

LayerTimes layer_times(const tiv::obs::SpanTracer& tracer, const Leg& leg) {
  const double epochs = static_cast<double>(leg.epoch_ms.size());
  const auto per_epoch = [&](const char* span) {
    return static_cast<double>(tracer.total_ns(span)) / 1e6 / epochs;
  };
  LayerTimes t;
  t.epoch = per_epoch("bench.epoch");
  t.ingest = per_epoch("bench.ingest");
  t.commit = per_epoch("bench.commit");
  t.apply = per_epoch("bench.apply");
  t.repack = per_epoch("tile-repack");
  t.band_pair = per_epoch("band-pair-stream");
  t.sink_commit = per_epoch("sink-commit");
  t.read_us = ratio(static_cast<double>(tracer.total_ns("bench.read")) / 1e3,
                    static_cast<double>(leg.read_us.size()));
  return t;
}

std::uint64_t counter(const tiv::obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// The timed run's end-to-end metrics, tracing off.
std::vector<Metric> timed_metrics(const Leg& leg, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"epoch_p50_ms", quantile(leg.epoch_ms, 0.5), "ms"},
      {"epoch_p90_ms", quantile(leg.epoch_ms, 0.9), "ms"},
      {"samples_per_s",
       ratio(static_cast<double>(leg.counts.samples_applied),
             leg.busy_ms / 1e3),
       "1/s"},
      {"query_p50_us", quantile(leg.read_us, 0.5), "us"},
      {"query_p99_us", quantile(leg.read_us, 0.99), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

/// The traced run: at 4 threads, untraced and traced epochs alternate (so
/// the tracing overhead compares epochs of the same time window), then
/// traced legs at 2 and 1 threads give each layer's speed-up. The ledger
/// comes from the 4-thread traced epochs; `legs` receives every leg.
std::vector<Metric> traced_metrics(Monitor& monitor, const Workload& w,
                                   double seconds, double setup_s,
                                   std::size_t& next, std::vector<Leg>& legs) {
  constexpr std::size_t kMaxThreads = 4;
  const double leg_s = seconds / 4.0;
  tiv::obs::SpanTracer tracer(1 << 18);
  const auto traced = [&](auto&& run) {
    tiv::obs::SpanTracer::attach(&tracer);
    run();
    tiv::obs::SpanTracer::attach(nullptr);
    if (tracer.dropped() != 0) {
      throw std::runtime_error("span ring overflowed in a traced leg");
    }
  };

  tiv::set_parallel_thread_count(kMaxThreads);
  Leg untraced;
  Leg leg;
  const auto snap0 = tiv::obs::MetricsRegistry::instance().snapshot();
  const auto t0 = Clock::now();
  while (leg.epoch_ms.size() < kMinLegEpochs ||
         ms_between(t0, Clock::now()) < 2 * leg_s * 1e3) {
    monitor.run_epoch(next++, untraced);
    traced([&] { monitor.run_epoch(next++, leg); });
  }
  const double wall_ms = ms_between(t0, Clock::now());
  const auto delta =
      tiv::obs::MetricsRegistry::instance().snapshot().delta_since(snap0);
  const LayerTimes t4 = layer_times(tracer, leg);
  const double explain_us = monitor.explain_call_us();

  std::vector<LayerTimes> slow;  // 2 threads, then 1
  for (const std::size_t threads : {std::size_t{2}, std::size_t{1}}) {
    tiv::set_parallel_thread_count(threads);
    tracer.clear();
    traced([&] {
      legs.push_back(monitor.run_leg(next, leg_s, kMinLegEpochs, 0));
    });
    slow.push_back(layer_times(tracer, legs.back()));
  }
  const double explain_us_1t = monitor.explain_call_us();
  tiv::set_parallel_thread_count(0);
  const LayerTimes& t2 = slow[0];
  const LayerTimes& t1 = slow[1];

  const bool oc = w.out_of_core();
  const double n = static_cast<double>(w.n);
  const double epochs = static_cast<double>(leg.epoch_ms.size());
  const double all_epochs = epochs + static_cast<double>(untraced.epoch_ms.size());
  Counts all = untraced.counts;
  all.add(leg.counts);
  const Counts& c = leg.counts;
  const double witness_ops = static_cast<double>(c.edges_recomputed) * n;
  const double all_witness_ops = static_cast<double>(all.edges_recomputed) * n;
  // Kernel time: the band-pair scan out of core (tile reads included), the
  // whole incremental repair in memory.
  const double core_ms = oc ? t4.band_pair : t4.apply;
  const double core_ms_1t = oc ? t1.band_pair : t1.apply;
  const auto count = [&](const char* name) {
    return static_cast<double>(counter(delta, name));
  };
  // Registry counters cover both halves of the interleaved leg.
  const auto per_epoch = [&](double v) { return v / all_epochs; };
  const auto hit_ratio = [&](const char* hits, const char* misses) {
    return ratio(count(hits), count(hits) + count(misses));
  };
  const auto oc_only = [&](double v) { return oc ? v : 0.0; };
  const auto inmem_only = [&](double v) { return oc ? 0.0 : v; };
  const double layer_sum = t4.ingest + t4.commit + t4.apply;
  const double p50_untraced = quantile(untraced.epoch_ms, 0.5);
  const double p50_traced = quantile(leg.epoch_ms, 0.5);
  legs.push_back(std::move(untraced));
  legs.push_back(std::move(leg));
  return {
      {"stream.ingest_ms", t4.ingest, "ms"},
      {"stream.ns_per_sample",
       ratio(t4.ingest * 1e6 * epochs, static_cast<double>(c.samples_sent)),
       "ns"},
      {"stream.commit_ms", t4.commit, "ms"},
      {"stream.dirty_hosts", per_epoch(static_cast<double>(all.dirty_hosts)),
       "count"},
      {"stream.useful_ratio",
       ratio(static_cast<double>(all.edges_touched),
             static_cast<double>(all.samples_applied)),
       "ratio"},
      {"stream.rejected", static_cast<double>(all.rejected), "count"},
      {"engine.apply_ms", oc_only(t4.apply), "ms"},
      {"engine.repack_ms", t4.repack, "ms"},
      {"engine.band_pair_ms", t4.band_pair, "ms"},
      {"engine.sink_commit_ms", t4.sink_commit, "ms"},
      {"engine.unattributed_ms",
       oc_only(t4.apply - t4.repack - t4.band_pair - t4.sink_commit), "ms"},
      {"engine.edges_recomputed",
       oc_only(per_epoch(static_cast<double>(all.edges_recomputed))), "count"},
      {"engine.tiles_repacked",
       per_epoch(static_cast<double>(all.tiles_repacked)), "count"},
      {"engine.sink_tiles_committed",
       per_epoch(static_cast<double>(all.sink_tiles_committed)), "count"},
      {"incremental.apply_ms", inmem_only(t4.apply), "ms"},
      {"incremental.rows_repacked",
       per_epoch(static_cast<double>(all.rows_repacked)), "count"},
      {"incremental.edges_recomputed",
       inmem_only(per_epoch(static_cast<double>(all.edges_recomputed))),
       "count"},
      {"core.witness_ops", per_epoch(all_witness_ops), "wit_computed"},
      {"core.gwit_per_s", ratio(witness_ops / 1e9, core_ms * epochs / 1e3),
       "Gwit/s"},
      {"core.setup_gwit_per_s", ratio(n * (n - 1) / 2 * n / 1e9, setup_s),
       "Gwit/s"},
      {"core.explain_us_per_edge",
       explain_us / static_cast<double>(kWatchEdges), "us"},
      {"shard.input.reads", per_epoch(count("shard.input.reads")), "count"},
      {"shard.input.read_bytes", per_epoch(count("shard.input.read_bytes")),
       "B"},
      {"shard.bytes_per_witness",
       ratio(count("shard.input.read_bytes"), all_witness_ops),
       "B/wit_computed"},
      {"cache.input.hit_ratio",
       hit_ratio("cache.input.hits", "cache.input.misses"), "ratio"},
      {"cache.input.evictions", per_epoch(count("cache.input.evictions")),
       "count"},
      {"shard.input.read_retries", count("shard.input.read_retries"),
       "count"},
      {"shard.sink.write_bytes", per_epoch(count("shard.sink.write_bytes")),
       "B"},
      {"shard.sink.read_bytes", per_epoch(count("shard.sink.read_bytes")),
       "B"},
      {"cache.sink.hit_ratio",
       hit_ratio("cache.sink.hits", "cache.sink.misses"), "ratio"},
      {"sink.row_read_us", oc_only(t4.read_us), "us"},
      {"pool.idle_share",
       ratio(count("pool.idle_ns") / 1e6,
             static_cast<double>(kMaxThreads - 1) * wall_ms),
       "ratio"},
      {"pool.speedup_4t", ratio(t1.epoch, t4.epoch), "x"},
      {"pool.speedup_2t", ratio(t1.epoch, t2.epoch), "x"},
      {"stream.speedup_4t",
       ratio(t1.ingest + t1.commit, t4.ingest + t4.commit), "x"},
      {"engine.speedup_4t", oc_only(ratio(t1.apply, t4.apply)), "x"},
      {"incremental.speedup_4t", inmem_only(ratio(t1.apply, t4.apply)), "x"},
      {"core.speedup_4t", ratio(core_ms_1t, core_ms), "x"},
      {"sink.speedup_4t", oc_only(ratio(t1.read_us, t4.read_us)), "x"},
      {"core.explain_speedup_4t", ratio(explain_us_1t, explain_us), "x"},
      {"trace.epoch_ms", t4.epoch, "ms"},
      {"trace.layer_sum_ms", layer_sum, "ms"},
      {"driver.self_ms", t4.epoch - layer_sum, "ms"},
      {"trace.coverage", ratio(layer_sum, t4.epoch), "ratio"},
      {"trace.untraced_p50_ms", p50_untraced, "ms"},
      {"trace.overhead_ms", p50_traced - p50_untraced, "ms"},
      {"trace.overhead_share", ratio(p50_traced - p50_untraced, p50_untraced),
       "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const tiv::Flags flags(argc, argv);
    const std::string name = flags.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const double seconds = flags.get_double("seconds", 10.0);
    const bool traced = flags.get_int("trace", 0) != 0;
    const std::string dir = flags.get_string("dir", "");
    const std::string counts_file = flags.get_string("counts-file", "");
    tiv::reject_unknown_flags(flags);
    if (dir.empty()) throw std::invalid_argument("--dir is required");
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");

    const Workload w = workload_by_name(name);
    // Non-cyclic workloads pre-generate more epochs than any run can use:
    // an epoch there costs tens of ms, so 100 per second is a safe cap.
    const std::size_t planned =
        w.warmup_epochs + std::max<std::size_t>(
                              2 * kMinTimedEpochs,
                              static_cast<std::size_t>(100 * seconds));
    Load load = generate(w, seed, planned);
    Monitor monitor(w, load, dir);
    reset_peak_rss();

    monitor.setup();  // untimed: first-touch page faults, file creation
    std::vector<double> setups;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      setups.push_back(monitor.setup());
    }
    const double setup_s = median(setups);
    std::cerr << "setup reps (s):";
    for (const double s : setups) std::cerr << " " << s;
    std::cerr << "\n";

    std::size_t next = 0;
    std::vector<Leg> legs;
    legs.push_back(monitor.run_leg(next, 0.0, w.warmup_epochs, 0));
    const std::uint64_t print =
        fingerprint(monitor.epoch_counts(), w.warmup_epochs, w.n);

    std::vector<Metric> metrics;
    if (traced) {
      metrics = traced_metrics(monitor, w, seconds, setup_s, next, legs);
    } else {
      legs.push_back(
          monitor.run_leg(next, seconds, kMinTimedEpochs, kMinTimedReads));
      metrics = timed_metrics(legs.back(), setup_s);
    }

    // End-of-run checks, untimed.
    std::vector<std::string> failures = monitor.verify();
    if (!same_counts_as_before(counts_file, name + ":" + std::to_string(seed),
                               print)) {
      failures.push_back(
          "warm-up counts differ from an earlier run of this seed");
    }
    for (const std::string& f : failures) {
      std::cerr << "check failed: " << f << "\n";
    }

    std::size_t epochs = 0;
    std::size_t reads = 0;
    std::size_t epochs_failed = 0;
    std::size_t reads_failed = 0;
    for (const Leg& leg : legs) {
      epochs += leg.epoch_ms.size();
      reads += leg.read_us.size();
      epochs_failed += leg.epochs_failed;
      reads_failed += leg.reads_failed;
    }
    // A failed end-of-run check fails every epoch of the run.
    if (!failures.empty()) epochs_failed = epochs;
    const std::size_t failed = epochs_failed + reads_failed;
    if (traced) {
      metrics.push_back({"error_rate",
                         ratio(static_cast<double>(failed),
                               static_cast<double>(epochs + reads)),
                         "ratio"});
    }
    const bool correct = failed == 0;
    print_result(correct, epochs + reads, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "live_monitor_bench: " << e.what() << "\n";
    return 2;
  }
}
