#include "src/sched/simulator.h"

#include <algorithm>
#include <queue>

#include "src/obs/trace_context.h"
#include "src/trace/utilization.h"

namespace rc::sched {

using rc::trace::UtilizationModel;

std::vector<VmRequest> RequestsFromTrace(const rc::trace::Trace& trace, SimTime horizon) {
  std::vector<VmRequest> out;
  out.reserve(trace.vms().size());
  for (const auto& vm : trace.vms()) {
    if (vm.created >= horizon) continue;
    VmRequest req;
    req.vm_id = vm.vm_id;
    req.cores = vm.cores;
    req.memory_gb = vm.memory_gb;
    req.production = vm.tag == rc::trace::DeploymentTag::kProduction;
    req.arrival = vm.created;
    req.departure = vm.deleted;
    req.source = &vm;
    out.push_back(req);
  }
  // trace.vms() is sorted by (created, vm_id), which is (arrival, vm_id).
  return out;
}

SimResult ClusterSimulator::Run(std::vector<VmRequest> requests,
                                SchedulingPolicy& policy) const {
  rc::obs::MetricsRegistry& reg = config_.metrics != nullptr
                                      ? *config_.metrics
                                      : rc::obs::MetricsRegistry::Global();
  rc::obs::Histogram& slot_latency = reg.GetHistogram(
      "rc_sim_slot_latency_us", {},
      "per-slot event processing + utilization sampling wall time (us)");
  // Spare physical capacity on the oversubscribable pool: sum over
  // non-empty oversubscribable servers of max(0, physical - allocated)
  // cores, sampled once per slot. Falls as the informed policies pack the
  // pool tighter.
  rc::obs::Gauge& headroom = reg.GetGauge(
      "rc_sim_oversub_headroom_cores", {},
      "unallocated physical cores across non-empty oversubscribable servers");
  rc::obs::Counter& vms_placed = reg.GetCounter("rc_sim_vms", {}, "placement requests");
  rc::obs::Counter& sched_failures =
      reg.GetCounter("rc_sim_failures", {}, "scheduling failures");
  rc::obs::Counter& overloads = reg.GetCounter(
      "rc_sim_overload_readings", {}, "occupied-server readings above 100% CPU");

  SimResult result;
  const double physical = static_cast<double>(config_.cluster.cores_per_server);

  struct Departure {
    SimTime time;
    size_t request_index;
    int server;
    bool operator>(const Departure& other) const { return time > other.time; }
  };
  std::priority_queue<Departure, std::vector<Departure>, std::greater<Departure>> departures;

  // What the per-slot loop reads of a hosted VM, copied in at placement so
  // the loop never follows `source` into the trace's VmRecords.
  struct ActiveVm {
    const rc::trace::VmRecord* source;  // identity, for removal on departure
    rc::trace::UtilizationParams util;
    int cores;
  };
  std::vector<std::vector<ActiveVm>> hosted(static_cast<size_t>(config_.cluster.num_servers));

  // P99 via a fixed histogram over [0, 2) x physical capacity.
  constexpr size_t kUtilBins = 400;
  std::vector<int64_t> util_hist(kUtilBins, 0);
  double util_sum = 0.0;

  size_t next_arrival = 0;
  auto process_events_until = [&](SimTime t) {
    // Resolve predictions for the whole arrival wave up front: one batched
    // client call per slot instead of one prediction per Place. Departures
    // interleaved below don't depend on predictions, so prefetching the wave
    // before the event loop cannot change placement order or outcomes.
    size_t wave_end = next_arrival;
    while (wave_end < requests.size() && requests[wave_end].arrival <= t) ++wave_end;
    if (wave_end > next_arrival) {
      policy.PrefetchUtil({requests.data() + next_arrival, wave_end - next_arrival});
    }
    while (true) {
      bool have_arrival = next_arrival < requests.size() && requests[next_arrival].arrival <= t;
      bool have_departure = !departures.empty() && departures.top().time <= t;
      if (!have_arrival && !have_departure) break;
      // Interleave in time order; departures first on ties (frees capacity).
      bool departure_first =
          have_departure &&
          (!have_arrival || departures.top().time <= requests[next_arrival].arrival);
      if (departure_first) {
        Departure d = departures.top();
        departures.pop();
        const VmRequest& vm = requests[d.request_index];
        policy.Complete(vm, d.server);
        auto& list = hosted[static_cast<size_t>(d.server)];
        for (size_t i = 0; i < list.size(); ++i) {
          if (list[i].source == vm.source) {
            list[i] = list.back();
            list.pop_back();
            break;
          }
        }
      } else {
        VmRequest& vm = requests[next_arrival];
        ++result.total_vms;
        std::optional<int> server = policy.Place(vm);
        if (!server.has_value()) {
          ++result.failures;
        } else {
          if (policy.cluster().server(*server).alloc_cores > physical + 1e-9) {
            ++result.oversub_placements;
          }
          hosted[static_cast<size_t>(*server)].push_back(
              ActiveVm{vm.source, vm.source->util, vm.cores});
          if (vm.departure > vm.arrival) {
            departures.push(Departure{vm.departure, next_arrival, *server});
          }
        }
        ++next_arrival;
      }
    }
  };

  const int64_t slots = config_.horizon / kSlot;
  for (int64_t slot = 0; slot < slots; ++slot) {
    rc::obs::TraceSpan slot_span("sim/slot", &slot_latency);
    SimTime slot_start = SlotStart(slot);
    process_events_until(slot_start);
    headroom.Set(policy.cluster().oversub_headroom_cores());
    // The slot's inner hashes, shared by every hosted VM's reading.
    const UtilizationModel::SlotHashes slot_hashes(slot);
    for (auto& list : hosted) {
      if (list.empty()) continue;
      double used_cores = 0.0;
      for (const ActiveVm& vm : list) {
        double frac = UtilizationModel::MaxCpuAt(vm.util, slot_hashes) + config_.util_inflation;
        used_cores += frac * vm.cores;
      }
      double fraction = used_cores / physical;
      ++result.occupied_readings;
      if (fraction > 1.0 + 1e-9) ++result.overload_readings;
      util_sum += fraction;
      size_t bin = std::min(kUtilBins - 1, static_cast<size_t>(fraction * kUtilBins / 2.0));
      ++util_hist[bin];
    }
  }
  // Drain remaining arrivals inside the horizon (e.g. after the last slot).
  process_events_until(config_.horizon);

  vms_placed.Increment(static_cast<uint64_t>(result.total_vms));
  sched_failures.Increment(static_cast<uint64_t>(result.failures));
  overloads.Increment(static_cast<uint64_t>(result.overload_readings));

  if (result.occupied_readings > 0) {
    result.mean_occupied_utilization =
        util_sum / static_cast<double>(result.occupied_readings);
    int64_t target = result.occupied_readings -
                     (result.occupied_readings + 99) / 100;  // ~P99 rank
    int64_t seen = 0;
    for (size_t b = 0; b < kUtilBins; ++b) {
      seen += util_hist[b];
      if (seen > target) {
        result.p99_utilization = 2.0 * static_cast<double>(b + 1) / kUtilBins;
        break;
      }
    }
  }
  return result;
}

}  // namespace rc::sched
