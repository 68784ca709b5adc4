// Randomized instance families for tests and experiments.
//
// All generators are deterministic in their seed and produce instances
// that pass Instance::validate(). Families mirror the regimes the paper's
// analysis distinguishes: long windows (Section 3), short windows
// (Section 4), mixtures (Theorem 1), unit jobs (prior work, Bender et
// al.), and the Partition-shaped adversarial construction from the
// NP-hardness remark in Section 1.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/instance.hpp"

namespace calisched {

struct GenParams {
  std::uint64_t seed = 1;
  int n = 10;          ///< number of jobs
  Time T = 10;         ///< calibration length
  int machines = 2;
  Time horizon = 100;  ///< release times drawn so windows fit in [0, horizon)
  Time min_proc = 1;   ///< clamped to [1, T]
  Time max_proc = 10;  ///< clamped to [min_proc, T]
};

/// All windows in [min_window_factor*T, max_window_factor*T], factors >= 2
/// (Definition 1 long).
[[nodiscard]] Instance generate_long_window(const GenParams& params,
                                            Time min_window_factor = 2,
                                            Time max_window_factor = 6);

/// All windows < 2T (Definition 1 short); window length drawn uniformly in
/// [p_j + slack_min, 2T - 1].
[[nodiscard]] Instance generate_short_window(const GenParams& params,
                                             Time slack_min = 0);

/// Each job long with probability `long_fraction`, otherwise short.
[[nodiscard]] Instance generate_mixed(const GenParams& params,
                                      double long_fraction = 0.5);

/// Unit jobs (p_j = 1) with window length uniform in [1, max_window].
[[nodiscard]] Instance generate_unit(const GenParams& params, Time max_window = 8);

/// The Section-1 NP-hardness shape: machines = 2, r_j = 0, d_j = T, and
/// processing times that admit a perfect 2-partition with total work 2T.
/// `pieces` is the number of jobs per machine side (n = 2 * pieces).
[[nodiscard]] Instance generate_partition_adversarial(std::uint64_t seed,
                                                      int pieces, Time piece_max);

/// Poisson-ish bursts: `bursts` clusters of releases, each burst tight in
/// time; exercises the case where calibration sharing matters most.
[[nodiscard]] Instance generate_clustered(const GenParams& params, int bursts,
                                          Time burst_span, bool long_windows);

/// Calibration-type-table shapes for the generalized cost model (Angel et
/// al.). Each regime stresses a different cost trade-off:
///   kCheapShort    — a cheap short type against a pricier double-length
///                    type; sharing must pay for the upgrade;
///   kExpensiveLong — a unit-cost short type against a superlinearly
///                    priced triple-length type; long is rarely worth it;
///   kDelayed       — the longer type activates late, so its nominal
///                    capacity shrinks near deadlines.
enum class CalibTableRegime { kCheapShort, kExpensiveLong, kDelayed };

/// The two-type table for `regime`, scaled to `base_length` (>= 2).
[[nodiscard]] CalibrationModel calib_table(CalibTableRegime regime,
                                           Time base_length);

/// Jobs drawn as in generate_mixed but attached to calib_table(regime,
/// params.T): processing times fit the base type, windows range from tight
/// (lone job, cheap type suffices) to several spans wide (clusters where a
/// longer calibration amortizes its cost).
[[nodiscard]] Instance generate_calib_cost(const GenParams& params,
                                           CalibTableRegime regime);

// --- Arrival-trace families -----------------------------------------------
//
// Shapes tuned for the online layer: the release time doubles as the
// arrival time (ArrivalTrace::from_instance), so these control the
// *arrival process* where the families above control window structure.
// They remain plain instances — the offline solvers run on them unchanged,
// which is exactly what the competitive-ratio bench needs.

/// Poisson-like stream: integer exponential inter-arrival gaps with mean
/// `mean_gap` (<= 0 derives horizon / n), windows with slack uniform in
/// [0, 2T]. The steady-state case for the subscribe service.
[[nodiscard]] Instance generate_online_poisson(const GenParams& params,
                                               double mean_gap = 0.0);

/// `bursts` waves of simultaneous arrivals with short windows (slack < T).
/// Many urgent jobs reveal at one instant, which is what drives the online
/// heuristic's doubling escalation.
[[nodiscard]] Instance generate_online_burst(const GenParams& params,
                                             int bursts = 4);

/// Adversarial drip: one job at a time, gaps uniform in [1, max(1, T/2)],
/// zero slack (d_j = r_j + p_j). Every arrival must be served the moment
/// it lands, so laziness buys nothing — the worst regime for an online
/// scheduler against a clairvoyant packer.
[[nodiscard]] Instance generate_online_drip(const GenParams& params);

// --- Named families ---------------------------------------------------------
//
// The one family-name -> generator table. `calisched --generate` and the
// batch driver both go through generate_family, so a batch record's seed
// passed back to --generate rebuilds that record's instance.

/// Per-family knobs beyond GenParams. A zero field means the family's
/// default, so one struct serves families with different defaults.
struct FamilyOptions {
  double long_fraction = 0.5;  ///< mixed
  Time max_window = 0;         ///< unit; 0 means 2T - 1
  /// clustered (0 means 3) and online-burst (0 means 4)
  int bursts = 0;
  Time burst_span = 0;         ///< clustered; 0 means T
  bool long_windows = false;   ///< clustered
  double mean_gap = 0.0;       ///< online-poisson; <= 0 means horizon / n
};

/// One instance of the named family: mixed|long|short|unit|clustered, the
/// calibration-cost families calib-cheap-short|calib-expensive-long|
/// calib-delayed (see CalibTableRegime), or the arrival-trace families
/// online-poisson|online-burst|online-drip. Throws std::invalid_argument on
/// an unknown family.
[[nodiscard]] Instance generate_family(std::string_view family,
                                       const GenParams& params,
                                       const FamilyOptions& options = {});

}  // namespace calisched
