#include "gen/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace calisched {
namespace {

Instance shell(const GenParams& params) {
  Instance instance;
  instance.machines = params.machines;
  instance.T = params.T;
  return instance;
}

Time draw_proc(Rng& rng, const GenParams& params) {
  const Time lo = std::clamp<Time>(params.min_proc, 1, params.T);
  const Time hi = std::clamp<Time>(params.max_proc, lo, params.T);
  return rng.uniform_int(lo, hi);
}

Job make_job(JobId id, Time release, Time window, Time proc) {
  assert(window >= proc);
  return Job{id, release, release + window, proc};
}

}  // namespace

Instance generate_long_window(const GenParams& params, Time min_window_factor,
                              Time max_window_factor) {
  assert(min_window_factor >= 2 && max_window_factor >= min_window_factor);
  Rng rng(params.seed);
  Instance instance = shell(params);
  for (int j = 0; j < params.n; ++j) {
    const Time proc = draw_proc(rng, params);
    const Time window =
        rng.uniform_int(min_window_factor * params.T, max_window_factor * params.T);
    const Time latest_release = std::max<Time>(0, params.horizon - window);
    const Time release = rng.uniform_int(0, latest_release);
    instance.jobs.push_back(make_job(j, release, window, proc));
  }
  return instance;
}

Instance generate_short_window(const GenParams& params, Time slack_min) {
  Rng rng(params.seed);
  Instance instance = shell(params);
  for (int j = 0; j < params.n; ++j) {
    const Time proc = draw_proc(rng, params);
    const Time window_lo = std::min(proc + slack_min, 2 * params.T - 1);
    const Time window = rng.uniform_int(window_lo, 2 * params.T - 1);
    const Time latest_release = std::max<Time>(0, params.horizon - window);
    const Time release = rng.uniform_int(0, latest_release);
    instance.jobs.push_back(make_job(j, release, window, proc));
  }
  return instance;
}

Instance generate_mixed(const GenParams& params, double long_fraction) {
  Rng rng(params.seed);
  Instance instance = shell(params);
  for (int j = 0; j < params.n; ++j) {
    const Time proc = draw_proc(rng, params);
    Time window;
    if (rng.chance(long_fraction)) {
      window = rng.uniform_int(2 * params.T, 6 * params.T);
    } else {
      window = rng.uniform_int(std::min(proc, 2 * params.T - 1), 2 * params.T - 1);
      window = std::max(window, proc);
    }
    const Time latest_release = std::max<Time>(0, params.horizon - window);
    const Time release = rng.uniform_int(0, latest_release);
    instance.jobs.push_back(make_job(j, release, window, proc));
  }
  return instance;
}

Instance generate_unit(const GenParams& params, Time max_window) {
  Rng rng(params.seed);
  Instance instance = shell(params);
  for (int j = 0; j < params.n; ++j) {
    const Time window = rng.uniform_int(1, std::max<Time>(1, max_window));
    const Time latest_release = std::max<Time>(0, params.horizon - window);
    const Time release = rng.uniform_int(0, latest_release);
    instance.jobs.push_back(make_job(j, release, window, /*proc=*/1));
  }
  return instance;
}

Instance generate_partition_adversarial(std::uint64_t seed, int pieces,
                                        Time piece_max) {
  assert(pieces >= 1 && piece_max >= 1);
  Rng rng(seed);
  // Build one machine side of total work T, then mirror it, so a perfect
  // partition exists by construction.
  std::vector<Time> side;
  Time total = 0;
  for (int i = 0; i < pieces; ++i) {
    const Time piece = rng.uniform_int(1, piece_max);
    side.push_back(piece);
    total += piece;
  }
  Instance instance;
  instance.machines = 2;
  instance.T = std::max<Time>(2, total);
  JobId id = 0;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Time piece : side) {
      instance.jobs.push_back(Job{id++, 0, instance.T, piece});
    }
  }
  return instance;
}

Instance generate_clustered(const GenParams& params, int bursts, Time burst_span,
                            bool long_windows) {
  assert(bursts >= 1);
  Rng rng(params.seed);
  Instance instance = shell(params);
  std::vector<Time> centers;
  for (int b = 0; b < bursts; ++b) {
    centers.push_back(rng.uniform_int(0, std::max<Time>(0, params.horizon)));
  }
  for (int j = 0; j < params.n; ++j) {
    const Time center = centers[rng.index(centers.size())];
    const Time proc = draw_proc(rng, params);
    Time window;
    if (long_windows) {
      window = rng.uniform_int(2 * params.T, 4 * params.T);
    } else {
      window = rng.uniform_int(std::min(proc, 2 * params.T - 1), 2 * params.T - 1);
      window = std::max(window, proc);
    }
    const Time release =
        std::max<Time>(0, center + rng.uniform_int(0, burst_span) - burst_span / 2);
    instance.jobs.push_back(make_job(j, release, window, proc));
  }
  return instance;
}

CalibrationModel calib_table(CalibTableRegime regime, Time base_length) {
  assert(base_length >= 2);
  const Time base = base_length;
  CalibrationModel model;
  switch (regime) {
    case CalibTableRegime::kCheapShort:
      model.types = {CalibrationType{base, 2, 0},
                     CalibrationType{2 * base, 5, 0}};
      break;
    case CalibTableRegime::kExpensiveLong:
      model.types = {CalibrationType{base, 1, 0},
                     CalibrationType{3 * base, 10, 0}};
      break;
    case CalibTableRegime::kDelayed:
      model.types = {CalibrationType{base, 2, 0},
                     CalibrationType{2 * base, 3, std::max<Time>(1, base / 2)}};
      break;
  }
  assert(!model.validate().has_value());
  return model;
}

Instance generate_calib_cost(const GenParams& params, CalibTableRegime regime) {
  Rng rng(params.seed);
  Instance instance = shell(params);
  instance.cal = calib_table(regime, params.T);
  for (int j = 0; j < params.n; ++j) {
    // draw_proc clamps to [1, T], so every job fits the base-length type.
    const Time proc = draw_proc(rng, params);
    const Time window = proc + rng.uniform_int(0, 2 * params.T);
    const Time latest_release = std::max<Time>(0, params.horizon - window);
    const Time release = rng.uniform_int(0, latest_release);
    instance.jobs.push_back(make_job(j, release, window, proc));
  }
  return instance;
}

Instance generate_online_poisson(const GenParams& params, double mean_gap) {
  Rng rng(params.seed);
  Instance instance = shell(params);
  const double gap = mean_gap > 0.0
                         ? mean_gap
                         : static_cast<double>(std::max<Time>(1, params.horizon)) /
                               static_cast<double>(std::max(1, params.n));
  Time at = 0;
  for (int j = 0; j < params.n; ++j) {
    // Integer exponential inter-arrival: inverse-CDF on uniform01, so the
    // stream stays deterministic across toolchains (no std distributions).
    at += static_cast<Time>(std::llround(-gap * std::log1p(-rng.uniform01())));
    const Time proc = draw_proc(rng, params);
    const Time window = proc + rng.uniform_int(0, 2 * params.T);
    instance.jobs.push_back(make_job(j, at, window, proc));
  }
  return instance;
}

Instance generate_online_burst(const GenParams& params, int bursts) {
  assert(bursts >= 1);
  Rng rng(params.seed);
  Instance instance = shell(params);
  // Burst times march forward with gaps in [T, 3T]: far enough apart that
  // calibrations opened for one wave have mostly expired by the next.
  std::vector<Time> waves;
  Time at = 0;
  for (int b = 0; b < bursts; ++b) {
    waves.push_back(at);
    at += rng.uniform_int(params.T, 3 * params.T);
  }
  for (int j = 0; j < params.n; ++j) {
    const Time wave = waves[static_cast<std::size_t>(j) % waves.size()];
    const Time proc = draw_proc(rng, params);
    const Time window =
        proc + rng.uniform_int(0, std::max<Time>(0, params.T - proc));
    instance.jobs.push_back(make_job(j, wave, window, proc));
  }
  return instance;
}

Instance generate_online_drip(const GenParams& params) {
  Rng rng(params.seed);
  Instance instance = shell(params);
  Time at = 0;
  for (int j = 0; j < params.n; ++j) {
    const Time proc = draw_proc(rng, params);
    instance.jobs.push_back(make_job(j, at, /*window=*/proc, proc));
    at += rng.uniform_int(1, std::max<Time>(1, params.T / 2));
  }
  return instance;
}

Instance generate_family(std::string_view family, const GenParams& params,
                         const FamilyOptions& options) {
  if (family == "mixed") return generate_mixed(params, options.long_fraction);
  if (family == "long") return generate_long_window(params);
  if (family == "short") return generate_short_window(params);
  if (family == "unit") {
    return generate_unit(params, options.max_window > 0 ? options.max_window
                                                        : 2 * params.T - 1);
  }
  if (family == "clustered") {
    return generate_clustered(
        params, options.bursts > 0 ? options.bursts : 3,
        options.burst_span > 0 ? options.burst_span : params.T,
        options.long_windows);
  }
  if (family == "calib-cheap-short") {
    return generate_calib_cost(params, CalibTableRegime::kCheapShort);
  }
  if (family == "calib-expensive-long") {
    return generate_calib_cost(params, CalibTableRegime::kExpensiveLong);
  }
  if (family == "calib-delayed") {
    return generate_calib_cost(params, CalibTableRegime::kDelayed);
  }
  if (family == "online-poisson") {
    return generate_online_poisson(params, options.mean_gap);
  }
  if (family == "online-burst") {
    return generate_online_burst(params,
                                 options.bursts > 0 ? options.bursts : 4);
  }
  if (family == "online-drip") return generate_online_drip(params);
  throw std::invalid_argument(
      "unknown family '" + std::string(family) +
      "' (mixed|long|short|unit|clustered|calib-cheap-short|"
      "calib-expensive-long|calib-delayed|online-poisson|online-burst|"
      "online-drip)");
}

}  // namespace calisched
