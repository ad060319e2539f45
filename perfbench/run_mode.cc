// Untraced run: Simulator::run on a CsvSlotSource, observed only through a
// source decorator (pull stamps) and a scheme decorator (plan stamps, the
// per-slot correctness checks and plan digests).
#include <sys/resource.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "trace/slot_source.h"
#include "util/peak_rss.h"
#include "verify/schedule_audit.h"

namespace perfbench {

namespace {

/// Per-slot stamps shared by the source decorator (puller thread) and every
/// clone of the scheme decorator (lane threads).
class RunRecorder {
 public:
  struct Slot {
    double pulled = 0.0;  // batch left SlotSource::next
    double plan_begin = 0.0;
    double plan_end = 0.0;
    bool stamped = false;
    std::uint64_t digest = 0;
    std::string failure;
  };

  void pulled(const ccdn::SlotBatch& batch, double begin, double end) {
    const std::lock_guard<std::mutex> lock(mu_);
    pulls_.push_back({begin, end});
    if (batch.slot_index == 0 && !batch.requests.empty()) {
      origin_ = batch.requests.front().timestamp;
    }
    if (slots_.size() <= batch.slot_index) slots_.resize(batch.slot_index + 1);
    slots_[batch.slot_index].pulled = end;
  }

  /// The final pull, which returned nothing, still ends a wait.
  void exhausted(double begin, double end) {
    const std::lock_guard<std::mutex> lock(mu_);
    pulls_.push_back({begin, end});
  }

  /// The slot is recovered from the first request's timestamp: the CSV
  /// source anchors slot k at origin + k * kSlotSeconds.
  void planned(std::span<const ccdn::Request> requests, double begin,
               double end, std::uint64_t digest, std::string failure) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (requests.empty()) {
      unmapped_plans_ += 1;  // cannot be placed; run.py fails the run
      return;
    }
    const auto slot = static_cast<std::size_t>(
        (requests.front().timestamp - origin_) / kSlotSeconds);
    if (slots_.size() <= slot) slots_.resize(slot + 1);
    Slot& s = slots_[slot];
    s.plan_begin = begin;
    s.plan_end = end;
    s.digest = digest;
    s.failure = std::move(failure);
    if (s.stamped) s.failure += " planned twice";
    s.stamped = true;
  }

  // Read after Simulator::run returned (all lanes joined).
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] std::size_t unmapped_plans() const { return unmapped_plans_; }
  /// Σ gaps between consecutive pulls: the puller's time between pulls.
  [[nodiscard]] double pull_wait_s() const {
    double wait = 0.0;
    for (std::size_t i = 1; i < pulls_.size(); ++i) {
      wait += pulls_[i].first - pulls_[i - 1].second;
    }
    return wait;
  }

 private:
  std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<std::pair<double, double>> pulls_;
  std::int64_t origin_ = 0;
  std::size_t unmapped_plans_ = 0;
};

class StampedSource final : public ccdn::SlotSource {
 public:
  StampedSource(ccdn::SlotSource& inner, RunRecorder& recorder,
                std::size_t max_slots)
      : inner_(inner), recorder_(recorder), max_slots_(max_slots) {}

  [[nodiscard]] std::optional<ccdn::SlotBatch> next() override {
    if (max_slots_ != 0 && pulled_ == max_slots_) return std::nullopt;
    const double begin = now_s();
    std::optional<ccdn::SlotBatch> batch = inner_.next();
    const double end = now_s();
    if (batch.has_value()) {
      recorder_.pulled(*batch, begin, end);
      ++pulled_;
    } else {
      recorder_.exhausted(begin, end);
    }
    return batch;
  }
  [[nodiscard]] std::int64_t slot_seconds() const noexcept override {
    return inner_.slot_seconds();
  }

 private:
  ccdn::SlotSource& inner_;
  RunRecorder& recorder_;
  std::size_t max_slots_;
  std::size_t pulled_ = 0;
};

/// Stamps plan_slot and checks its plan: audit_assignment and
/// audit_placements on every slot, audit_slot_plan (capacity feasibility)
/// where the scheme promises it, i.e. unsharded RBCAer.
class CheckedScheme final : public ccdn::RedirectionScheme {
 public:
  CheckedScheme(ccdn::SchemePtr inner, RunRecorder& recorder,
                bool audit_capacity)
      : inner_(std::move(inner)),
        recorder_(recorder),
        audit_capacity_(audit_capacity) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] ccdn::SlotPlan plan_slot(
      const ccdn::SchemeContext& context,
      std::span<const ccdn::Request> requests,
      const ccdn::SlotDemand& demand) override {
    const double begin = now_s();
    ccdn::SlotPlan plan = inner_->plan_slot(context, requests, demand);
    const double end = now_s();
    ccdn::AuditReport audit;
    if (audit_capacity_) {
      ccdn::audit_slot_plan(plan, context.hotspots, requests,
                            demand.request_home(), audit);
    } else {
      ccdn::audit_assignment(plan.assignment, requests.size(),
                             context.hotspots.size(), audit);
      ccdn::audit_placements(plan.placements, context.hotspots, audit);
    }
    recorder_.planned(requests, begin, end, ccdn::plan_digest(plan),
                      audit.summary());
    return plan;
  }

  [[nodiscard]] ccdn::SchemePtr clone() const override {
    ccdn::SchemePtr inner = inner_->clone();
    if (!inner) return nullptr;
    return std::make_unique<CheckedScheme>(std::move(inner), recorder_,
                                           audit_capacity_);
  }

  [[nodiscard]] const ccdn::StageTimings* last_stage_timings()
      const override {
    return inner_->last_stage_timings();
  }

 private:
  ccdn::SchemePtr inner_;
  RunRecorder& recorder_;
  bool audit_capacity_;
};

double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

}  // namespace

void run_untraced(const Workload& workload, const RunOptions& options,
                  std::FILE* out) {
  std::vector<double> setup_s;
  Setup setup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const double begin = now_s();
    setup = make_setup(workload, options.threads);
    setup_s.push_back(now_s() - begin);
  }
  const std::size_t lanes = setup.simulator->config().num_threads;

  RunRecorder recorder;
  CheckedScheme scheme(std::move(setup.scheme), recorder,
                       /*audit_capacity=*/workload.shards == 0);
  rusage self_before{};
  rusage children_before{};
  getrusage(RUSAGE_SELF, &self_before);
  getrusage(RUSAGE_CHILDREN, &children_before);
  const double begin = now_s();
  ccdn::CsvSlotSource csv(options.trace_path, kSlotSeconds);
  StampedSource source(csv, recorder, options.max_slots);
  const ccdn::SimulationReport report = setup.simulator->run(scheme, source);
  const double wall = now_s() - begin;
  rusage self_after{};
  rusage children_after{};
  getrusage(RUSAGE_SELF, &self_after);
  getrusage(RUSAGE_CHILDREN, &children_after);

  std::vector<double> latency_ms;
  std::vector<std::string> digests;
  std::vector<std::string> failures;
  std::vector<double> failed_ids;
  double plan_busy_s = 0.0;
  const auto& slots = recorder.slots();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    const RunRecorder::Slot& s = slots[k];
    std::string failure = s.stamped ? s.failure : "no plan_slot stamp";
    if (!failure.empty()) {
      failed_ids.push_back(static_cast<double>(k));
      if (failures.size() < 5) {
        failures.push_back("slot " + std::to_string(k) + ": " + failure);
      }
    }
    latency_ms.push_back((s.plan_end - s.pulled) * 1e3);
    plan_busy_s += s.plan_end - s.plan_begin;
    digests.push_back(hex_digest(s.digest));
  }
  if (report.slots().size() != slots.size() ||
      recorder.unmapped_plans() != 0) {
    failed_ids.clear();
    for (std::size_t k = 0; k < std::max(slots.size(), report.slots().size());
         ++k) {
      failed_ids.push_back(static_cast<double>(k));
    }
    failures.push_back("report/stamp slot count mismatch");
  }

  JsonLine json(out);
  json.num("wall_s", wall);
  json.count("requests", report.total_requests());
  json.count("slots", slots.size());
  json.nums("failed_ids", failed_ids);
  json.strs("failures", failures);
  json.nums("setup_s", setup_s);
  json.nums("latency_ms", latency_ms);
  json.strs("digests", digests);
  json.num("user_s",
           seconds(self_after.ru_utime) - seconds(self_before.ru_utime));
  json.num("sys_s",
           seconds(self_after.ru_stime) - seconds(self_before.ru_stime));
  const double children_before_s = seconds(children_before.ru_utime) +
                                   seconds(children_before.ru_stime);
  json.num("children_cpu_s", seconds(children_after.ru_utime) +
                                 seconds(children_after.ru_stime) -
                                 children_before_s);
  json.num("self_rss_mb", ccdn::peak_rss_mb(self_after));
  json.num("children_rss_mb", ccdn::peak_rss_mb(children_after));
  json.num("serving_ratio", report.serving_ratio());
  json.num("avg_distance_km", report.average_distance_km());
  json.num("replication_cost", report.replication_cost());
  json.num("cdn_server_load", report.cdn_server_load());
  json.num("pull_wait_s", recorder.pull_wait_s());
  json.num("plan_busy_s", plan_busy_s);
  json.count("lanes", lanes);
}

}  // namespace perfbench
