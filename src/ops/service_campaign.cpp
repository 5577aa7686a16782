#include "hpcqc/ops/service_campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "hpcqc/common/error.hpp"
#include "hpcqc/common/hash.hpp"
#include "hpcqc/common/stats.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/load/driver.hpp"
#include "hpcqc/telemetry/alerts.hpp"

namespace hpcqc::ops {

namespace {

/// Locale-independent shortest-round-trip rendering for the JSON report —
/// identical doubles give identical bytes.
std::string num17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// How one offered job landed, from the SLO accountant's point of view.
enum class Outcome { kPending, kCompleted, kFailed, kShed, kFallback,
                     kRejected };

Outcome classify(const sched::Fleet& fleet, int id) {
  switch (fleet.state(id)) {
    case sched::QuantumJobState::kCompleted: return Outcome::kCompleted;
    case sched::QuantumJobState::kFailed: return Outcome::kFailed;
    case sched::QuantumJobState::kShed: return Outcome::kShed;
    case sched::QuantumJobState::kRejectedOverload:
      // A fleet-wide refusal (no device could serve) is the service's
      // failure — the client's circuit breaker runs the job on the HPC
      // emulator. A device-level refusal after placement is the tenant
      // exceeding its own quota.
      return fleet.record(id).device < 0 ? Outcome::kFallback
                                         : Outcome::kRejected;
    case sched::QuantumJobState::kRejectedTooWide:
    case sched::QuantumJobState::kCancelled:
    case sched::QuantumJobState::kMigrated:
      return Outcome::kRejected;
    case sched::QuantumJobState::kQueued:
    case sched::QuantumJobState::kRunning:
    case sched::QuantumJobState::kRetrying:
      return Outcome::kPending;
  }
  return Outcome::kPending;
}

/// Good/bad outcome split behind the error budget: completed is good;
/// failed, shed, and emulator fallback spend budget; quota/width
/// rejections are the tenant's doing and spend none.
bool is_bad(Outcome outcome) {
  return outcome == Outcome::kFailed || outcome == Outcome::kShed ||
         outcome == Outcome::kFallback;
}

void validate_config(const ServiceCampaignConfig& config) {
  const auto check = [](bool ok, const std::string& what) {
    if (!ok)
      throw PermanentError("ServiceCampaignConfig: " + what,
                           ErrorCode::kPrecondition);
  };
  check(config.horizon > 0.0, "horizon must be positive");
  check(config.step > 0.0 && config.step <= config.horizon,
        "step must be positive and fit the horizon");
  const double steps = config.horizon / config.step;
  check(std::abs(steps - std::round(steps)) < 1.0e-6,
        "horizon must be a whole number of steps");
  check(config.devices >= 2,
        "need at least two devices (coordinated maintenance must leave one "
        "serving)");
  check(config.maintenance_period > 0.0, "maintenance_period must be positive");
  check(config.maintenance_duration > 0.0 &&
            config.maintenance_duration < config.maintenance_period,
        "maintenance_duration must be positive and below the period");
  check(config.slo.success_target > 0.0 && config.slo.success_target < 1.0,
        "slo.success_target must be in (0, 1)");
  check(config.slo.availability_target > 0.0 &&
            config.slo.availability_target <= 1.0,
        "slo.availability_target must be in (0, 1]");
  check(config.slo.burn_window >= config.step,
        "slo.burn_window cannot be shorter than the step");
  check(config.report_tenants >= 1, "report_tenants must be >= 1");
}

}  // namespace

fault::FaultPlan::Params default_device_fault_params() {
  fault::FaultPlan::Params params;
  params.thermal_excursion = {days(45.0), hours(2.0)};
  params.device_execution = {days(5.0), minutes(5.0)};
  params.qubit_dropout = {days(20.0), hours(6.0)};
  params.coupler_dropout = {days(25.0), hours(6.0)};
  params.queue_flood = {days(10.0), hours(1.0)};
  return params;
}

fault::FaultPlan::Params default_fleet_fault_params() {
  fault::FaultPlan::Params params;
  params.cryo_plant_trip = {days(120.0), hours(2.0)};
  params.facility_power = {days(60.0), hours(1.0)};
  return params;
}

load::TrafficConfig default_service_traffic() {
  load::TrafficConfig config;
  config.tenants = 500;
  config.base_rate_per_hour = 6.0;
  config.weekend_factor = 0.55;
  config.max_qubits = 20;
  return config;
}

ServiceCampaign::ServiceCampaign(ServiceCampaignConfig config)
    : config_(std::move(config)) {
  validate_config(config_);
}

ServiceCampaign::~ServiceCampaign() = default;

ServiceCampaignResult ServiceCampaign::run() {
  Rng rng(config_.seed);
  ServiceCampaignResult result;
  result.seed = config_.seed;
  result.horizon = config_.horizon;
  result.devices = config_.devices;
  result.min_devices_serving = config_.devices;

  // --- Fleet -----------------------------------------------------------------
  sched::Fleet::Config fleet_config = config_.fleet;
  // A simulated year of jobs must stay cheap and bit-identical at any
  // OMP_NUM_THREADS: cost-model execution only, analytic benchmarks.
  fleet_config.qrm.execution_mode = device::ExecutionMode::kEstimateOnly;
  fleet_config.qrm.benchmark.analytic = true;
  fleet_config.coordination_step = config_.step;
  sched::Fleet fleet(fleet_config, rng, &log_);
  for (std::size_t d = 0; d < config_.devices; ++d)
    fleet.add_device(
        std::make_unique<device::DeviceModel>(device::make_iqm20(rng)));

  // --- Fault environment -----------------------------------------------------
  // Child seeds come from one splitmix expansion of the campaign seed, so
  // every stream is independent yet fully determined by (seed).
  std::uint64_t seed_state = config_.seed;
  fault::FaultPlan::Params device_params = config_.device_faults;
  device_params.horizon = config_.horizon;
  device_params.num_qubits = fleet.device_model(0).num_qubits();
  device_params.num_couplers =
      fleet.device_model(0).health().num_couplers();
  std::vector<fault::FaultPlan> plans;
  for (std::size_t d = 0; d < config_.devices; ++d)
    plans.push_back(
        fault::FaultPlan::generate(device_params, splitmix64(seed_state)));

  fault::FaultPlan::Params fleet_params = config_.fleet_faults;
  fleet_params.horizon = config_.horizon;
  fleet_params.num_devices = static_cast<int>(config_.devices);
  fault::FaultPlan fleet_plan =
      fault::FaultPlan::generate(fleet_params, splitmix64(seed_state));
  fleet_plan.merge(config_.scheduled_fleet_faults);
  plans = fault::expand_fleet_events(fleet_plan, std::move(plans));

  FleetSupervisorParams supervisor_params = config_.supervisor;
  supervisor_params.device.recovery.benchmark.analytic = true;
  FleetSupervisor supervisor(fleet, std::move(plans), rng, &log_, &store_,
                             supervisor_params);

  // --- Traffic ---------------------------------------------------------------
  load::TrafficConfig traffic_config = config_.traffic;
  traffic_config.duration = config_.horizon;
  traffic_config.seed = splitmix64(seed_state);
  const load::TrafficGenerator traffic(traffic_config);
  const load::JobFactory factory(fleet.device_model(0), traffic,
                                 traffic_config.seed);
  const std::vector<load::Arrival> schedule = traffic.generate();
  std::vector<int> fleet_ids(schedule.size(), -1);

  // --- SLO + alert plumbing --------------------------------------------------
  telemetry::AlertEngine alerts;
  telemetry::install_slo_alert_rules(alerts, "slo.fleet", config_.slo);
  for (std::size_t d = 0; d < config_.devices; ++d)
    ResilienceSupervisor::install_alert_rules(
        alerts, supervisor_params.sensor_prefix + "." +
                    fleet.device_name(static_cast<int>(d)));

  std::vector<std::string> serving_sensors;
  for (std::size_t d = 0; d < config_.devices; ++d) {
    serving_sensors.push_back(
        "slo." + fleet.device_name(static_cast<int>(d)) + ".serving");
    store_.append(serving_sensors.back(), 0.0, 1.0);
  }

  // --- Coordinated preventive maintenance state ------------------------------
  const std::size_t n = config_.devices;
  std::vector<Seconds> next_due(n, 0.0);
  std::vector<Seconds> window_end(n, -1.0);
  std::vector<bool> in_maintenance(n, false);
  std::vector<bool> deferral_logged(n, false);
  // Stagger first windows across the period so devices never line up.
  for (std::size_t d = 0; d < n; ++d)
    next_due[d] = config_.maintenance_period *
                  (1.0 + static_cast<double>(d) / static_cast<double>(n));

  const auto peers_serving = [&](std::size_t d) {
    std::size_t serving = 0;
    for (std::size_t e = 0; e < n; ++e)
      if (e != d && fleet.qrm(static_cast<int>(e)).online()) serving += 1;
    return serving;
  };

  // --- Burn-window accounting ------------------------------------------------
  std::vector<std::size_t> unresolved;  ///< tickets awaiting a terminal state
  std::size_t cum_good = 0;
  std::size_t cum_bad = 0;
  std::size_t window_good_base = 0;
  std::size_t window_bad_base = 0;
  std::size_t window_steps = 0;
  std::size_t window_down_steps = 0;
  Seconds next_window_end = config_.slo.burn_window;

  const auto sweep_unresolved = [&] {
    std::size_t kept = 0;
    for (const std::size_t ticket : unresolved) {
      const Outcome outcome = classify(fleet, fleet_ids[ticket]);
      if (outcome == Outcome::kPending) {
        unresolved[kept++] = ticket;
      } else if (outcome == Outcome::kCompleted) {
        ++cum_good;
      } else if (is_bad(outcome)) {
        ++cum_bad;
      }
      // Quota/width rejections spend no service budget.
    }
    unresolved.resize(kept);
  };

  const auto flush_window = [&](Seconds t) {
    sweep_unresolved();
    const std::size_t good = cum_good - window_good_base;
    const std::size_t bad = cum_bad - window_bad_base;
    const double rate =
        telemetry::burn_rate(good, bad, config_.slo.success_target);
    result.max_burn_rate = std::max(result.max_burn_rate, rate);
    const double window_availability =
        window_steps == 0
            ? 1.0
            : 1.0 - static_cast<double>(window_down_steps) /
                        static_cast<double>(window_steps);
    store_.append("slo.fleet.burn_rate", t, rate);
    store_.append("slo.fleet.availability", t, window_availability);
    for (const auto& event : alerts.evaluate(store_, t)) {
      if (event.raised) {
        ++result.alerts_raised;
        log_.warning(t, "slo", "alert raised: " + event.rule);
      } else {
        log_.info(t, "slo", "alert cleared: " + event.rule);
      }
    }
    window_good_base = cum_good;
    window_bad_base = cum_bad;
    window_steps = 0;
    window_down_steps = 0;
  };

  // --- Main loop -------------------------------------------------------------
  const std::size_t steps = static_cast<std::size_t>(
      std::llround(config_.horizon / config_.step));
  const Seconds end = static_cast<double>(steps) * config_.step;
  std::size_t next_arrival = 0;
  for (std::size_t k = 1; k <= steps; ++k) {
    const Seconds t = static_cast<double>(k) * config_.step;
    supervisor.step(t);

    // Coordinated maintenance, device index order for replayability.
    for (std::size_t d = 0; d < n; ++d) {
      const int dev = static_cast<int>(d);
      if (in_maintenance[d]) {
        if (supervisor.supervisor(dev).outage_active()) {
          // A real outage landed mid-window; its staging (including the
          // recovery recalibration) supersedes the planned work.
          in_maintenance[d] = false;
          log_.info(t, "ops",
                    "maintenance window on '" + fleet.device_name(dev) +
                        "' absorbed by outage");
        } else if (t >= window_end[d]) {
          fleet.set_device_online(dev);
          in_maintenance[d] = false;
          log_.info(t, "ops",
                    "maintenance complete on '" + fleet.device_name(dev) +
                        "'");
        } else if (peers_serving(d) == 0) {
          // The rest of the fleet went down: planned work must never be
          // the reason nobody is serving.
          fleet.set_device_online(dev);
          in_maintenance[d] = false;
          ++result.maintenance_preemptions;
          log_.warning(t, "ops",
                       "maintenance on '" + fleet.device_name(dev) +
                           "' preempted: fleet would drain");
        }
      } else if (t >= next_due[d]) {
        const bool device_ready = fleet.qrm(dev).online() &&
                                  !supervisor.supervisor(dev).outage_active();
        if (device_ready && peers_serving(d) >= 1) {
          fleet.set_device_offline(dev, "preventive maintenance window");
          in_maintenance[d] = true;
          window_end[d] = t + config_.maintenance_duration;
          // Next window counts from the actual start so a deferred window
          // never causes back-to-back catch-up maintenance.
          next_due[d] = t + config_.maintenance_period;
          deferral_logged[d] = false;
          ++result.maintenance_windows;
          log_.info(t, "ops",
                    "preventive maintenance started on '" +
                        fleet.device_name(dev) + "'");
        } else if (!deferral_logged[d]) {
          deferral_logged[d] = true;
          ++result.maintenance_deferrals;
          log_.info(t, "ops",
                    "preventive maintenance deferred on '" +
                        fleet.device_name(dev) + "': " +
                        (device_ready ? "fleet cannot cover the window"
                                      : "device out of service"));
        }
      }
    }

    // Due arrivals enter through the fleet's front door in ticket order.
    while (next_arrival < schedule.size() &&
           schedule[next_arrival].time <= t) {
      fleet_ids[next_arrival] = fleet.submit(factory.make(schedule[next_arrival]));
      unresolved.push_back(next_arrival);
      ++next_arrival;
    }

    // Serving sensors: unlike the supervisor's qpu_online signal, these go
    // to 0 during maintenance windows too — they are the availability the
    // tenants actually experience.
    std::size_t serving = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const bool online = fleet.qrm(static_cast<int>(d)).online();
      if (online) serving += 1;
      store_.append(serving_sensors[d], t, online ? 1.0 : 0.0);
    }
    result.min_devices_serving =
        std::min(result.min_devices_serving, serving);
    ++window_steps;
    if (serving == 0) {
      ++window_down_steps;
      bool maintaining = false;
      for (std::size_t d = 0; d < n; ++d) maintaining |= in_maintenance[d];
      if (maintaining) ++result.drained_by_maintenance_steps;
    }

    if (t + 1.0e-9 >= next_window_end) {
      flush_window(t);
      next_window_end += config_.slo.burn_window;
    }
  }
  if (window_steps > 0) flush_window(end);

  // --- Drain -----------------------------------------------------------------
  // Release any window still open (the drain needs the device), then run
  // the fleet dry so every admitted job reaches a terminal state.
  for (std::size_t d = 0; d < n; ++d) {
    const int dev = static_cast<int>(d);
    if (in_maintenance[d] && !supervisor.supervisor(dev).outage_active()) {
      fleet.set_device_online(dev);
      in_maintenance[d] = false;
    }
  }
  fleet.drain();

  // --- Per-tenant accounting -------------------------------------------------
  struct Tally {
    TenantSlo slo;
    std::vector<Seconds> turnarounds;
  };
  std::map<std::string, Tally> tenants;
  std::vector<Seconds> all_turnarounds;
  std::uint64_t fingerprint = kHashBasis;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const int id = fleet_ids[i];
    if (id < 0) continue;  // arrival after the last step: never offered
    const sched::Fleet::FleetJobRecord& record = fleet.record(id);
    const Outcome outcome = classify(fleet, id);
    Tally& tally = tenants[factory.tenant_name(schedule[i].tenant)];
    tally.slo.offered += 1;
    Seconds end_time = record.submit_time;
    switch (outcome) {
      case Outcome::kCompleted: {
        tally.slo.completed += 1;
        end_time =
            fleet.qrm(record.device).record(record.local_id).end_time;
        const Seconds turnaround = end_time - record.submit_time;
        tally.turnarounds.push_back(turnaround);
        all_turnarounds.push_back(turnaround);
        tally.slo.budget.good += 1;
        break;
      }
      case Outcome::kFailed: tally.slo.failed += 1; break;
      case Outcome::kShed: tally.slo.shed += 1; break;
      case Outcome::kFallback: tally.slo.fallback_emulated += 1; break;
      case Outcome::kRejected: tally.slo.rejected += 1; break;
      case Outcome::kPending: break;  // conservation audit will flag it
    }
    if (is_bad(outcome)) tally.slo.budget.bad += 1;
    if (outcome != Outcome::kCompleted && record.device >= 0)
      end_time = fleet.qrm(record.device).record(record.local_id).end_time;
    hash_mix(fingerprint, schedule[i].ticket);
    hash_mix(fingerprint, static_cast<std::uint64_t>(fleet.state(id)));
    hash_mix(fingerprint, end_time);
    hash_mix(fingerprint, record.device);
  }
  result.fingerprint = fingerprint;

  // Head tenants by offered volume (name breaks ties), tail in one row.
  std::vector<std::string> ranked;
  for (const auto& [name, tally] : tenants) ranked.push_back(name);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const std::string& a, const std::string& b) {
                     return tenants[a].slo.offered != tenants[b].slo.offered
                                ? tenants[a].slo.offered >
                                      tenants[b].slo.offered
                                : a < b;
                   });
  Tally other;
  other.slo.tenant = "other";
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    Tally& tally = tenants[ranked[r]];
    tally.slo.budget.target = config_.slo.success_target;
    if (r < config_.report_tenants) {
      tally.slo.tenant = ranked[r];
      if (!tally.turnarounds.empty()) {
        tally.slo.p50_turnaround = percentile(tally.turnarounds, 0.50);
        tally.slo.p99_turnaround = percentile(tally.turnarounds, 0.99);
      }
      result.tenants.push_back(tally.slo);
    } else {
      other.slo.offered += tally.slo.offered;
      other.slo.completed += tally.slo.completed;
      other.slo.failed += tally.slo.failed;
      other.slo.shed += tally.slo.shed;
      other.slo.fallback_emulated += tally.slo.fallback_emulated;
      other.slo.rejected += tally.slo.rejected;
      other.slo.budget.good += tally.slo.budget.good;
      other.slo.budget.bad += tally.slo.budget.bad;
      other.turnarounds.insert(other.turnarounds.end(),
                               tally.turnarounds.begin(),
                               tally.turnarounds.end());
    }
  }
  if (other.slo.offered > 0) {
    other.slo.budget.target = config_.slo.success_target;
    if (!other.turnarounds.empty()) {
      other.slo.p50_turnaround = percentile(other.turnarounds, 0.50);
      other.slo.p99_turnaround = percentile(other.turnarounds, 0.99);
    }
    result.tenants.push_back(other.slo);
  }

  // --- Fleet totals ----------------------------------------------------------
  for (const TenantSlo& tenant : result.tenants) {
    result.offered += tenant.offered;
    result.completed += tenant.completed;
    result.failed += tenant.failed;
    result.shed += tenant.shed;
    result.fallback_emulated += tenant.fallback_emulated;
    result.rejected += tenant.rejected;
  }
  if (!all_turnarounds.empty()) {
    result.p50_turnaround = percentile(all_turnarounds, 0.50);
    result.p99_turnaround = percentile(all_turnarounds, 0.99);
  }
  result.fleet_budget.target = config_.slo.success_target;
  result.fleet_budget.good = result.completed;
  result.fleet_budget.bad =
      result.failed + result.shed + result.fallback_emulated;

  result.availability = telemetry::fleet_availability_from_store(
      store_, serving_sensors, 0.0, end);
  result.fleet_availability = result.availability.fleet_availability();
  result.mean_device_availability = result.availability.mean_availability();
  result.worst_device_availability = 1.0;
  for (const auto& device : result.availability.devices)
    result.worst_device_availability =
        std::min(result.worst_device_availability, device.availability());

  result.resilience = supervisor.stats();
  result.conservation = fleet.conservation();
  return result;
}

std::string ServiceCampaignResult::to_json() const {
  std::string json = "{";
  json += "\"seed\":" + std::to_string(seed);
  json += ",\"horizon_days\":" + num17(to_days(horizon));
  json += ",\"devices\":" + std::to_string(devices);
  json += ",\"totals\":{\"offered\":" + std::to_string(offered) +
          ",\"completed\":" + std::to_string(completed) +
          ",\"failed\":" + std::to_string(failed) +
          ",\"shed\":" + std::to_string(shed) +
          ",\"fallback_emulated\":" + std::to_string(fallback_emulated) +
          ",\"rejected\":" + std::to_string(rejected) +
          ",\"p50_turnaround_s\":" + num17(p50_turnaround) +
          ",\"p99_turnaround_s\":" + num17(p99_turnaround) + "}";
  json += ",\"availability\":{\"fleet\":" + num17(fleet_availability) +
          ",\"mean_device\":" + num17(mean_device_availability) +
          ",\"worst_device\":" + num17(worst_device_availability) +
          ",\"all_down_s\":" + num17(availability.all_down) + "}";
  json += ",\"error_budget\":{\"target\":" + num17(fleet_budget.target) +
          ",\"sli\":" + num17(fleet_budget.sli()) +
          ",\"consumed\":" + num17(fleet_budget.consumed()) +
          ",\"max_burn_rate\":" + num17(max_burn_rate) + "}";
  json += ",\"ops\":{\"outages\":" + std::to_string(resilience.outages) +
          ",\"recoveries\":" + std::to_string(resilience.recoveries) +
          ",\"downtime_s\":" + num17(resilience.total_downtime) +
          ",\"migrations\":" + std::to_string(resilience.migrations) +
          ",\"migration_dead_letters\":" +
          std::to_string(resilience.migration_dead_letters) +
          ",\"maintenance_windows\":" + std::to_string(maintenance_windows) +
          ",\"maintenance_deferrals\":" +
          std::to_string(maintenance_deferrals) +
          ",\"maintenance_preemptions\":" +
          std::to_string(maintenance_preemptions) +
          ",\"drained_by_maintenance_steps\":" +
          std::to_string(drained_by_maintenance_steps) +
          ",\"min_devices_serving\":" + std::to_string(min_devices_serving) +
          ",\"alerts_raised\":" + std::to_string(alerts_raised) + "}";
  json += ",\"tenants\":[";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantSlo& tenant = tenants[i];
    if (i > 0) json += ',';
    json += "{\"tenant\":\"" + tenant.tenant + "\"";
    json += ",\"offered\":" + std::to_string(tenant.offered);
    json += ",\"completed\":" + std::to_string(tenant.completed);
    json += ",\"failed\":" + std::to_string(tenant.failed);
    json += ",\"shed\":" + std::to_string(tenant.shed);
    json += ",\"fallback_emulated\":" +
            std::to_string(tenant.fallback_emulated);
    json += ",\"rejected\":" + std::to_string(tenant.rejected);
    json += ",\"availability\":" + num17(tenant.budget.sli());
    json += ",\"p50_turnaround_s\":" + num17(tenant.p50_turnaround);
    json += ",\"p99_turnaround_s\":" + num17(tenant.p99_turnaround);
    json += ",\"fallback_fraction\":" + num17(tenant.fallback_fraction());
    json += ",\"budget_consumed\":" + num17(tenant.budget.consumed());
    json += "}";
  }
  json += "]";
  json += ",\"conservation\":{\"submitted\":" +
          std::to_string(conservation.submitted) +
          ",\"in_flight\":" + std::to_string(conservation.in_flight) +
          ",\"holds\":" + (conservation.holds() ? "true" : "false") + "}";
  json += ",\"fingerprint\":\"" + hex64(fingerprint) + "\"";
  json += "}";
  return json;
}

void ServiceCampaignResult::print(std::ostream& os) const {
  os << "=== Service campaign: " << Table::num(to_days(horizon), 1)
     << " days, " << devices << " devices, seed " << seed << " ===\n\n";
  os << "fleet: offered=" << offered << " completed=" << completed
     << " failed=" << failed << " shed=" << shed
     << " fallback=" << fallback_emulated << " rejected=" << rejected
     << "\n";
  os << "turnaround: p50=" << Table::num(p50_turnaround, 1)
     << " s, p99=" << Table::num(p99_turnaround, 1) << " s\n";
  os << "availability: fleet=" << Table::num(fleet_availability, 6)
     << " mean-device=" << Table::num(mean_device_availability, 6)
     << " worst-device=" << Table::num(worst_device_availability, 6)
     << " all-down=" << Table::num(to_hours(availability.all_down), 2)
     << " h\n";
  os << "error budget: target=" << Table::num(fleet_budget.target, 4)
     << " sli=" << Table::num(fleet_budget.sli(), 6)
     << " consumed=" << Table::num(fleet_budget.consumed(), 4)
     << " max-burn=" << Table::num(max_burn_rate, 3) << "\n";
  os << "ops: outages=" << resilience.outages
     << " recoveries=" << resilience.recoveries
     << " downtime=" << Table::num(to_hours(resilience.total_downtime), 1)
     << " h migrations=" << resilience.migrations
     << " dead-letters=" << resilience.migration_dead_letters << "\n";
  os << "maintenance: windows=" << maintenance_windows
     << " deferrals=" << maintenance_deferrals
     << " preemptions=" << maintenance_preemptions
     << " min-serving=" << min_devices_serving
     << " drained-steps=" << drained_by_maintenance_steps << "\n";
  os << "alerts raised: " << alerts_raised << "\n\n";

  Table table({"tenant", "offered", "avail", "p50 (s)", "p99 (s)",
               "fallback", "shed", "reject", "budget"});
  for (const TenantSlo& tenant : tenants)
    table.add_row({tenant.tenant, std::to_string(tenant.offered),
                   Table::num(tenant.budget.sli(), 4),
                   Table::num(tenant.p50_turnaround, 1),
                   Table::num(tenant.p99_turnaround, 1),
                   Table::num(tenant.fallback_fraction(), 4),
                   Table::num(tenant.shed_fraction(), 4),
                   Table::num(tenant.reject_fraction(), 4),
                   Table::num(tenant.budget.consumed(), 3)});
  table.print(os);
  os << "\nconservation: "
     << (conservation.holds() && conservation.in_flight == 0 ? "balanced"
                                                             : "IMBALANCE")
     << "\nfingerprint: " << hex64(fingerprint) << "\n";
}

}  // namespace hpcqc::ops
