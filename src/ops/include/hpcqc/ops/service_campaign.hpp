#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hpcqc/common/log.hpp"
#include "hpcqc/common/units.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/load/traffic.hpp"
#include "hpcqc/ops/fleet_supervisor.hpp"
#include "hpcqc/sched/fleet.hpp"
#include "hpcqc/telemetry/health.hpp"
#include "hpcqc/telemetry/slo.hpp"
#include "hpcqc/telemetry/store.hpp"

namespace hpcqc::ops {

/// Service-level outcome of one tenant over a campaign. Offered work splits
/// into completed, failed (dead-lettered), shed (brownout victims),
/// fallback (the fleet refused for capacity — the client's circuit breaker
/// serves these on the HPC emulator), and rejected (unserviceable width or
/// the tenant's own quota). The error budget counts completed as good and
/// failed + shed + fallback as bad; quota/width rejections are the tenant's
/// doing and spend no service budget.
struct TenantSlo {
  std::string tenant;
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t fallback_emulated = 0;
  std::size_t rejected = 0;
  Seconds p50_turnaround = 0.0;  ///< submit -> result, completed jobs
  Seconds p99_turnaround = 0.0;
  telemetry::ErrorBudget budget;

  double fallback_fraction() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(fallback_emulated) /
                              static_cast<double>(offered);
  }
  double shed_fraction() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(shed) / static_cast<double>(offered);
  }
  double reject_fraction() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(offered);
  }
};

/// Default fault environment of a service year. Per device: thermal
/// excursions every ~45 days, element dropouts, weekly-ish queue floods,
/// occasional execution aborts. Fleet-correlated: a cryo-plant trip every
/// ~4 months warming every device, a facility power event every ~2 months
/// hitting a subset. Element/device counts and the horizon are filled in
/// by the campaign.
fault::FaultPlan::Params default_device_fault_params();
fault::FaultPlan::Params default_fleet_fault_params();

/// Default tenant mix of a service year: a 500-tenant zipf population at a
/// modest sustained rate with a diurnal cycle and quieter weekends —
/// ~50k offered jobs per simulated year instead of the load-test default's
/// millions.
load::TrafficConfig default_service_traffic();

/// Everything a year-scale service campaign needs: the fleet shape, the
/// tenant traffic, the composed fault environment (independent per-device
/// sites plus correlated facility sites expanded across devices plus
/// optional scripted events), coordinated preventive maintenance, and the
/// SLO targets the report is graded against.
struct ServiceCampaignConfig {
  std::uint64_t seed = 2026;
  Seconds horizon = days(365.0);
  Seconds step = minutes(15.0);  ///< also the fleet coordination slice
  std::size_t devices = 3;

  /// Tenant traffic; seed and duration are overridden by the campaign.
  load::TrafficConfig traffic = default_service_traffic();
  /// Fleet tunables; the QRM is forced to analytic estimate-only execution
  /// so a year of jobs stays cheap and bit-identical at any thread count.
  sched::Fleet::Config fleet;

  /// Independent per-device fault sites (horizon and element counts are
  /// filled in by the campaign).
  fault::FaultPlan::Params device_faults = default_device_fault_params();
  /// Correlated facility sites (kCryoPlantTrip / kFacilityPower), expanded
  /// into synchronized per-device excursions.
  fault::FaultPlan::Params fleet_faults = default_fleet_fault_params();
  /// Scripted events merged into the generated fleet plan — guarantees a
  /// correlated outage in short test horizons.
  fault::FaultPlan scheduled_fleet_faults;
  FleetSupervisorParams supervisor;

  /// Fleet-coordinated preventive maintenance: per-device windows are
  /// staggered across the period, started only while the device is in
  /// service, no outage is active on it, and at least one other device
  /// keeps serving; otherwise the window is deferred (never dropped).
  Seconds maintenance_period = days(30.0);
  Seconds maintenance_duration = hours(8.0);

  telemetry::SloTargets slo;
  /// Tenants with a dedicated row in the report (by offered jobs); the
  /// tail is rolled into one "other" row.
  std::size_t report_tenants = 8;
};

/// Deterministic outcome of a service campaign: fleet-wide and per-tenant
/// SLO accounting, availability from the serving sensors, ops counters,
/// and a replay fingerprint. to_json() and print() are pure functions of
/// the member values, so byte-identical members give byte-identical
/// reports.
struct ServiceCampaignResult {
  std::uint64_t seed = 0;
  Seconds horizon = 0.0;
  std::size_t devices = 0;

  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t fallback_emulated = 0;
  std::size_t rejected = 0;
  Seconds p50_turnaround = 0.0;
  Seconds p99_turnaround = 0.0;

  /// From the per-device "slo.<name>.serving" sensors (these reflect both
  /// fault outages and maintenance windows, unlike the supervisor's
  /// qpu_online sensors which track outages only).
  telemetry::FleetAvailabilityReport availability;
  double fleet_availability = 1.0;
  double mean_device_availability = 1.0;
  double worst_device_availability = 1.0;

  FleetResilienceStats resilience;
  std::size_t maintenance_windows = 0;
  std::size_t maintenance_deferrals = 0;
  std::size_t maintenance_preemptions = 0;
  /// Steps where no device was serving while at least one sat in a
  /// maintenance window — the never-drain-the-fleet invariant requires 0.
  std::size_t drained_by_maintenance_steps = 0;
  std::size_t min_devices_serving = 0;

  telemetry::ErrorBudget fleet_budget;
  double max_burn_rate = 0.0;
  std::size_t alerts_raised = 0;

  std::vector<TenantSlo> tenants;  ///< head rows + trailing "other" rollup
  sched::JobConservation conservation;
  /// hash_mix over (ticket, terminal state, end_time, device) in ticket
  /// order — one equality check for replay identity.
  std::uint64_t fingerprint = 0;

  std::string to_json() const;
  void print(std::ostream& os) const;
};

/// Year-scale "run it as a service" driver: a sched::Fleet under an
/// ops::FleetSupervisor, fed by the zipf/diurnal traffic model, with the
/// composed fault environment, coordinated maintenance, and per-tenant SLO
/// + burn-rate error-budget accounting evaluated through the telemetry
/// alert engine. Single-threaded on the simulated clock: the same config
/// yields a bit-identical result, log, and sensor store on every rerun and
/// under any OMP_NUM_THREADS.
class ServiceCampaign {
public:
  /// Throws PermanentError on degenerate configs.
  explicit ServiceCampaign(ServiceCampaignConfig config);
  ~ServiceCampaign();

  ServiceCampaignResult run();

  const EventLog& log() const { return log_; }
  const telemetry::TimeSeriesStore& store() const { return store_; }

private:
  ServiceCampaignConfig config_;
  EventLog log_;
  telemetry::TimeSeriesStore store_;
};

}  // namespace hpcqc::ops
