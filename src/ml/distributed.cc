#include "ml/distributed.h"

#include <algorithm>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace exearth::ml {

namespace {

// Cached handles for the per-step hot path. Simulated durations are
// recorded in simulated microseconds so the same histogram scale works
// for wall-clock and cluster-clock latencies.
struct DistMetrics {
  common::Counter* steps;
  common::Counter* steps_cancelled;
  common::Counter* sync_bytes_moved;
  common::Histogram* step_sim_us;
  common::Histogram* allreduce_sim_us;
  common::Histogram* parameter_server_sim_us;
  common::Histogram* step_wall_us;

  static const DistMetrics& Get() {
    static DistMetrics m = [] {
      auto& reg = common::MetricsRegistry::Default();
      return DistMetrics{
          reg.GetCounter("ml.distributed.steps"),
          reg.GetCounter("ml.distributed.steps_cancelled"),
          reg.GetCounter("ml.distributed.sync_bytes_moved"),
          reg.GetHistogram("ml.distributed.step_sim_us"),
          reg.GetHistogram("ml.distributed.allreduce_sim_us"),
          reg.GetHistogram("ml.distributed.parameter_server_sim_us"),
          reg.GetHistogram("ml.distributed.step_wall_us"),
      };
    }();
    return m;
  }
};

// Total bytes crossing the network for one gradient synchronization.
uint64_t SyncBytesMoved(SyncStrategy strategy, uint64_t gradient_bytes,
                        int workers) {
  if (workers <= 1) return 0;
  switch (strategy) {
    case SyncStrategy::kRingAllReduce:
      // Each of W workers ships 2*(W-1)/W of the gradient.
      return 2 * static_cast<uint64_t>(workers - 1) * gradient_bytes;
    case SyncStrategy::kParameterServer:
      // Every worker pushes gradients and pulls parameters.
      return 2 * static_cast<uint64_t>(workers) * gradient_bytes;
  }
  return 0;
}

}  // namespace

const char* SyncStrategyName(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kRingAllReduce:
      return "ring-allreduce";
    case SyncStrategy::kParameterServer:
      return "parameter-server";
  }
  return "unknown";
}

namespace {

WarmupSchedule MakeSchedule(const DistributedOptions& opt) {
  WarmupSchedule::Options s;
  s.base_lr = opt.base_lr;
  const double global_batch =
      static_cast<double>(opt.num_workers) * opt.per_worker_batch;
  s.scale = opt.linear_scaling ? global_batch / opt.base_batch : 1.0;
  // warmup_steps is finalized per-epoch once the dataset size is known; we
  // seed it with 0 and let the trainer recompute (see TrainEpoch).
  s.warmup_steps = 0;
  return WarmupSchedule(s);
}

}  // namespace

DataParallelTrainer::DataParallelTrainer(Network* network,
                                         const sim::Cluster* cluster,
                                         const DistributedOptions& options)
    : network_(network),
      cluster_(cluster),
      options_(options),
      optimizer_(SgdOptimizer::Options{.learning_rate = options.base_lr,
                                       .momentum = options.momentum,
                                       .weight_decay = options.weight_decay}),
      schedule_(MakeSchedule(options)),
      rng_(options.shuffle_seed) {
  EEA_CHECK(options.num_workers >= 1);
  EEA_CHECK(options.per_worker_batch >= 1);
}

double DataParallelTrainer::SyncTime(uint64_t gradient_bytes) const {
  switch (options_.strategy) {
    case SyncStrategy::kRingAllReduce:
      return cluster_->RingAllReduceTime(gradient_bytes,
                                         options_.num_workers);
    case SyncStrategy::kParameterServer:
      return cluster_->ParameterServerTime(gradient_bytes,
                                           options_.num_workers,
                                           options_.num_parameter_servers);
  }
  return 0.0;
}

DistributedEpochStats DataParallelTrainer::TrainEpoch(raster::Dataset* ds) {
  common::TraceRequest epoch_span("ml.TrainEpoch");
  const DistMetrics& metrics = DistMetrics::Get();
  ds->Shuffle(&rng_);
  DistributedEpochStats stats;
  const size_t n = ds->samples.size();
  const size_t global_bs = static_cast<size_t>(global_batch());
  steps_per_epoch_hint_ =
      static_cast<int>((n + global_bs - 1) / global_bs);
  // Rebuild the schedule now that steps/epoch is known (warmup spans
  // warmup_epochs * steps_per_epoch global steps).
  WarmupSchedule::Options sopt;
  sopt.base_lr = options_.base_lr;
  const double gb = static_cast<double>(global_bs);
  sopt.scale = options_.linear_scaling ? gb / options_.base_batch : 1.0;
  sopt.warmup_steps = options_.warmup_epochs * steps_per_epoch_hint_;
  WarmupSchedule schedule(sopt);

  double loss_sum = 0.0;
  int64_t correct = 0;
  int64_t seen = 0;
  const uint64_t grad_bytes = options_.gradient_bytes_override != 0
                                  ? options_.gradient_bytes_override
                                  : network_->GradientBytes();
  const common::RequestContext rctx = common::CurrentRequestContext();
  const bool guarded = !rctx.unconstrained();
  for (size_t begin = 0; begin < n; begin += global_bs) {
    if (guarded) {
      // A global step is the atomic unit: we poll between steps, so an
      // interrupted epoch still leaves the parameters at a step boundary.
      stats.interrupted = rctx.Check("ml.TrainEpoch");
      if (!stats.interrupted.ok()) {
        const size_t steps_left = (n - begin + global_bs - 1) / global_bs;
        metrics.steps_cancelled->Increment(steps_left);
        break;
      }
    }
    common::TraceSpan step_span("step", metrics.step_wall_us);
    const size_t end = std::min(n, begin + global_bs);
    optimizer_.set_learning_rate(schedule.LearningRate(global_step_));
    network_->ZeroGrads();
    // Workers process consecutive shards of the global batch against the
    // same parameters; gradients accumulate into the shared buffers.
    const size_t span = end - begin;
    const size_t per_worker =
        (span + static_cast<size_t>(options_.num_workers) - 1) /
        static_cast<size_t>(options_.num_workers);
    int active_workers = 0;
    size_t max_worker_samples = 0;
    for (int w = 0; w < options_.num_workers; ++w) {
      const size_t wb = begin + static_cast<size_t>(w) * per_worker;
      if (wb >= end) break;
      const size_t we = std::min(end, wb + per_worker);
      std::vector<int> labels;
      Tensor batch = MakeBatch(*ds, wb, we, options_.as_images, &labels);
      Tensor logits = network_->Forward(batch, /*training=*/true);
      LossResult loss = SoftmaxCrossEntropy(logits, labels);
      network_->Backward(loss.grad);
      loss_sum += loss.loss * static_cast<double>(labels.size());
      correct += loss.correct;
      seen += static_cast<int64_t>(labels.size());
      ++active_workers;
      max_worker_samples = std::max(max_worker_samples, we - wb);
    }
    // Average the per-worker mean gradients.
    if (active_workers > 1) {
      for (Tensor* g : network_->Grads()) {
        g->Scale(1.0f / static_cast<float>(active_workers));
      }
    }
    optimizer_.Step(network_->Params(), network_->Grads());
    ++global_step_;
    ++stats.steps;
    // Simulated time: slowest worker's compute + synchronization.
    // FlopsPerSample is queried after the forward pass so convolution
    // layers know their output sizes.
    const double flops_per_sample =
        options_.flops_per_sample_override != 0.0
            ? options_.flops_per_sample_override
            : network_->FlopsPerSample();
    const double compute = cluster_->GpuComputeTime(
        3.0 * flops_per_sample * static_cast<double>(max_worker_samples));
    const double comm = active_workers > 1 ? SyncTime(grad_bytes) : 0.0;
    stats.sim_compute_seconds += compute;
    stats.sim_comm_seconds += comm;
    metrics.steps->Increment();
    metrics.step_sim_us->Observe((compute + comm) * 1e6);
    if (active_workers > 1) {
      common::Histogram* sync_hist =
          options_.strategy == SyncStrategy::kRingAllReduce
              ? metrics.allreduce_sim_us
              : metrics.parameter_server_sim_us;
      sync_hist->Observe(comm * 1e6);
      metrics.sync_bytes_moved->Increment(
          SyncBytesMoved(options_.strategy, grad_bytes, active_workers));
    }
  }
  total_compute_seconds_ += stats.sim_compute_seconds;
  total_comm_seconds_ += stats.sim_comm_seconds;
  if (seen > 0) {
    stats.mean_loss = loss_sum / static_cast<double>(seen);
    stats.accuracy = static_cast<double>(correct) / static_cast<double>(seen);
  }
  const double sim_s = stats.sim_seconds();
  last_epoch_throughput_ = sim_s > 0 ? static_cast<double>(seen) / sim_s : 0;
  return stats;
}

std::vector<DistributedEpochStats> DataParallelTrainer::Fit(
    raster::Dataset* ds, int epochs) {
  std::vector<DistributedEpochStats> out;
  out.reserve(static_cast<size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    out.push_back(TrainEpoch(ds));
    if (!out.back().interrupted.ok()) break;
  }
  return out;
}

ConfusionMatrix DataParallelTrainer::Evaluate(const raster::Dataset& ds) {
  ConfusionMatrix cm(ds.num_classes);
  std::vector<int> preds = Predict(network_, ds, options_.as_images);
  for (size_t i = 0; i < ds.samples.size(); ++i) {
    cm.Add(ds.samples[i].label, preds[i]);
  }
  return cm;
}

SearchResult RunParallelExperiments(
    const std::vector<Trial>& trials, int parallel_slots,
    const std::function<TrialResult(const Trial&)>& run_trial) {
  EEA_CHECK(parallel_slots >= 1);
  SearchResult result;
  result.trials.reserve(trials.size());
  for (const Trial& t : trials) {
    result.trials.push_back(run_trial(t));
  }
  double best = -1.0;
  for (size_t i = 0; i < result.trials.size(); ++i) {
    result.serial_makespan_seconds += result.trials[i].sim_seconds;
    if (result.trials[i].accuracy > best) {
      best = result.trials[i].accuracy;
      result.best_index = static_cast<int>(i);
    }
  }
  // LPT scheduling of trials onto the parallel slots.
  std::vector<double> slot_end(static_cast<size_t>(parallel_slots), 0.0);
  std::vector<double> durations;
  durations.reserve(result.trials.size());
  for (const TrialResult& t : result.trials) durations.push_back(t.sim_seconds);
  std::sort(durations.rbegin(), durations.rend());
  for (double d : durations) {
    auto it = std::min_element(slot_end.begin(), slot_end.end());
    *it += d;
  }
  result.parallel_makespan_seconds =
      *std::max_element(slot_end.begin(), slot_end.end());
  return result;
}

}  // namespace exearth::ml
