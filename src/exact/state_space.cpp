// State-space explorers: layered BFS over hash-consed schedule states.
//
// Implementation notes shared by both explorers:
//
//   * States live in struct-of-vectors arenas (scheduled-set words,
//     frontier/slot pool, parent + edge per state) so a search is two
//     large allocations, not a node soup, and reconstruction is a parent
//     walk.
//   * The per-layer index is an unordered_multimap from the scheduled-set
//     hash to state ids in the *next* layer; equal_range gives the handful
//     of states sharing a job set, against which a newborn candidate is
//     merged (identical), discarded (dominated), or installed (possibly
//     killing bucket members it dominates — they stay in the arena with a
//     dead flag and are never expanded).
//   * Edges store (job, slot position[, calibration start]); start times
//     are *recomputed* during replay from the same canonical frontier
//     values the search saw, which keeps edges small and makes replay an
//     independent re-derivation of the schedule rather than a trust-me
//     copy. The canonicalization clamps (schedule_state.hpp) are
//     value-preserving for every start the remaining jobs can take, so
//     replayed starts equal real left-shifted starts.
//   * Remaining-set aggregates (min release, min latest start, min
//     processing, the ISE new-calibration floor) are maintained as
//     (min, second-min) pairs per expanded state, so each child gets its
//     floors in O(1) instead of O(n).
//   * Identical jobs are placed in index order (twin_prev_links), which
//     shrinks the reachable subset lattice from 2^n bitsets to per-class
//     counts — the symmetry collapse that lets the layered engine certify
//     instances whose permutation count drowns the branch-and-bound DFS.
#include "exact/state_space.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exact/schedule_state.hpp"
#include "trace/trace.hpp"

namespace calisched {
namespace {

constexpr Time kTimeMax = std::numeric_limits<Time>::max();

/// (min, runner-up) of a stream of (value, key) pairs; value_without(key)
/// answers "what is the min if `key` is excluded" in O(1) — the child-state
/// floor question asked once per (state, job) pair.
struct MinPair {
  Time best = kTimeMax;
  Time second = kTimeMax;
  std::int32_t best_key = -1;

  void feed(Time value, std::int32_t key) noexcept {
    if (value < best) {
      second = best;
      best = value;
      best_key = key;
    } else if (value < second) {
      second = value;
    }
  }
  [[nodiscard]] Time value_without(std::int32_t key) const noexcept {
    return key == best_key ? second : best;
  }
};

/// Scheduled-set scratch: parent words + one extra bit, hashed.
std::uint64_t hash_words(const std::vector<std::uint64_t>& words) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t word : words) {
    h ^= word;
    h *= 1099511628211ULL;
  }
  return h;
}

bool words_equal(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t count) noexcept {
  return std::equal(a, a + count, b);
}

/// twin_prev[j] = the largest k < j with an identical (release, deadline,
/// proc) triple, or -1. Any schedule can be relabelled so identical jobs are
/// placed in index order (swapping two identical jobs' assignments changes
/// nothing the verifier or the objective can see), so an explorer may
/// refuse to place job j while twin_prev[j] is still unscheduled. That
/// canonical-representative rule collapses the reachable subset lattice
/// from per-copy bitsets to per-class counts: with classes of sizes
/// n_1..n_k only prod (n_i + 1) job sets are reachable instead of 2^n,
/// which is exactly the regime where the layered engine beats DFS (a DFS
/// without the rule re-proves infeasibility once per permutation of twins).
std::vector<std::int32_t> twin_prev_links(const Instance& instance) {
  const std::size_t n = instance.size();
  std::vector<std::int32_t> prev(n, -1);
  for (std::size_t j = 1; j < n; ++j) {
    const Job& job = instance.jobs[j];
    for (std::size_t k = j; k-- > 0;) {
      const Job& other = instance.jobs[k];
      if (other.release == job.release && other.deadline == job.deadline &&
          other.proc == job.proc) {
        prev[j] = static_cast<std::int32_t>(k);
        break;
      }
    }
  }
  return prev;
}

/// One search's work tally, kept in plain locals so the expansion loop
/// touches no shared state; record() adds it to the caller's trace once,
/// when the search ends (completed or stopped).
struct ExactSearchCounters {
  std::int64_t states_created = 0;    ///< candidate states built (budget unit)
  std::int64_t states_merged = 0;     ///< re-reached an identical state
  std::int64_t states_dominated = 0;  ///< killed by the dominance rules
  std::int64_t states_pruned = 0;     ///< dead-job or calibration-cap pruned
  std::int64_t states_expanded = 0;   ///< states whose children were generated

  void record(TraceContext* trace) const {
    trace_add(trace, "state_space.states", states_created);
    trace_add(trace, "state_space.merged", states_merged);
    trace_add(trace, "state_space.dominated", states_dominated);
    trace_add(trace, "state_space.pruned", states_pruned);
    trace_add(trace, "state_space.expanded", states_expanded);
  }
};

// ------------------------------------------------------------------- MM --

class MmExplorer {
 public:
  MmExplorer(const Instance& instance, int machines, std::int64_t budget,
             const RunLimits& limits, TraceContext* trace)
      : instance_(instance),
        n_(instance.size()),
        m_(static_cast<std::size_t>(machines)),
        words_((instance.size() + 63) / 64),
        budget_(budget),
        twin_prev_(twin_prev_links(instance)),
        by_deadline_(instance.size()),
        poller_(limits, /*stride=*/256),
        trace_(trace) {
    for (std::size_t j = 0; j < n_; ++j) by_deadline_[j] = j;
    std::sort(by_deadline_.begin(), by_deadline_.end(),
              [&](std::size_t a, std::size_t b) {
                return instance.jobs[a].deadline < instance.jobs[b].deadline;
              });
  }

  StateSpaceMmResult run() {
    StateSpaceMmResult result;
    seed_root();
    std::vector<std::uint32_t> current{0};
    for (std::size_t layer = 0; layer < n_ && !current.empty(); ++layer) {
      TraceSpan span(trace_, "layer");
      bucket_.clear();
      next_.clear();
      for (const std::uint32_t id : current) {
        if (dead_[id]) continue;
        ++counters_.states_expanded;
        if (poller_.poll() != SolveStatus::kOk) return stop(poller_.status());
        if (!expand(id, layer)) return stop(SolveStatus::kLimitExceeded);
        if (complete_ != kNone) {
          result.feasible = true;
          result.schedule = reconstruct();
          return finish(std::move(result));
        }
      }
      current.clear();
      for (const std::uint32_t id : next_) {
        if (!dead_[id]) current.push_back(id);
      }
    }
    // Every layer drained without a complete state: definitively infeasible.
    return finish(std::move(result));
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  StateSpaceMmResult stop(SolveStatus status) {
    StateSpaceMmResult result;
    result.status = status;
    return finish(std::move(result));
  }

  StateSpaceMmResult finish(StateSpaceMmResult result) {
    result.states = counters_.states_created;
    counters_.record(trace_);
    return result;
  }

  void seed_root() {
    set_pool_.assign(words_, 0);
    frontier_pool_.assign(m_, instance_.min_release());
    parent_.push_back(kNone);
    edge_job_.push_back(-1);
    edge_slot_.push_back(-1);
    dead_.push_back(0);
    counters_.states_created = 1;
  }

  [[nodiscard]] const Time* frontiers(std::uint32_t id) const noexcept {
    return frontier_pool_.data() + static_cast<std::size_t>(id) * m_;
  }
  [[nodiscard]] const std::uint64_t* set_words(std::uint32_t id) const noexcept {
    return set_pool_.data() + static_cast<std::size_t>(id) * words_;
  }

  /// Expands one state; false on budget exhaustion. Sets complete_ when a
  /// child schedules every job.
  bool expand(std::uint32_t id, std::size_t layer) {
    // Copy the parent's records out of the pools: emit() appends to the
    // pools and would invalidate pointers into them.
    parent_words_.assign(set_words(id), set_words(id) + words_);
    parent_frontiers_.assign(frontiers(id), frontiers(id) + m_);
    const std::uint64_t* words = parent_words_.data();
    const Time* base = parent_frontiers_.data();
    remaining_.clear();
    MinPair release, latest;
    for (std::size_t j = 0; j < n_; ++j) {
      if ((words[j >> 6] >> (j & 63)) & 1) continue;
      remaining_.push_back(j);
      const Job& job = instance_.jobs[j];
      release.feed(job.release, static_cast<std::int32_t>(j));
      latest.feed(job.deadline - job.proc, static_cast<std::int32_t>(j));
    }
    for (const std::size_t j : remaining_) {
      // Canonical-representative rule: identical jobs go in index order.
      const std::int32_t twin = twin_prev_[j];
      if (twin >= 0 && !((words[twin >> 6] >> (twin & 63)) & 1)) continue;
      const Job& job = instance_.jobs[j];
      const auto key = static_cast<std::int32_t>(j);
      const Time child_floor = release.value_without(key);
      const Time child_latest = latest.value_without(key);
      // Largest frontier at or before the release: every earlier frontier
      // yields the same start r_j and a dominated remainder, so one child
      // stands in for all of them.
      std::size_t at_release = m_;  // index, m_ = none
      for (std::size_t s = 0; s < m_; ++s) {
        if (base[s] <= job.release) at_release = s;
      }
      if (at_release != m_) {
        if (!emit(id, layer, j, at_release, job.release, child_floor,
                  child_latest)) {
          return false;
        }
        if (complete_ != kNone) return true;
      }
      // Distinct frontiers strictly after the release start the job at the
      // frontier itself.
      Time previous = kTimeMax;
      for (std::size_t s = 0; s < m_; ++s) {
        const Time f = base[s];
        if (f <= job.release || f == previous) continue;
        previous = f;
        if (f + job.proc > job.deadline) break;  // sorted: later only worse
        if (!emit(id, layer, j, s, f, child_floor, child_latest)) return false;
        if (complete_ != kNone) return true;
      }
    }
    return true;
  }

  /// Builds, canonicalizes, prunes, and indexes one child. False on budget
  /// exhaustion.
  bool emit(std::uint32_t parent, std::size_t layer, std::size_t j,
            std::size_t slot, Time start, Time child_floor,
            Time child_latest) {
    if (++counters_.states_created > budget_) return false;
    const Job& job = instance_.jobs[j];
    const Time* base = parent_frontiers_.data();  // expand()'s stable copy
    scratch_.clear();
    for (std::size_t s = 0; s < m_; ++s) {
      if (s != slot) scratch_.push_back(base[s]);
    }
    scratch_.insert(
        std::lower_bound(scratch_.begin(), scratch_.end(), start + job.proc),
        start + job.proc);
    const bool complete = layer + 1 == n_;
    if (!complete) {
      canonicalize_mm_frontiers(scratch_, child_floor);
      // Dead state: some remaining job misses its deadline even on the
      // earliest frontier.
      if (scratch_[0] > child_latest) {
        ++counters_.states_pruned;
        return true;
      }
      if (energetic_dead(j)) {
        ++counters_.states_pruned;
        return true;
      }
    }
    scratch_set_ = parent_words_;
    scratch_set_[j >> 6] |= std::uint64_t{1} << (j & 63);
    if (complete) {
      complete_ = commit(parent, j, slot, 0);
      return true;
    }
    const std::uint64_t hash = hash_words(scratch_set_);
    auto range = bucket_.equal_range(hash);
    for (auto it = range.first; it != range.second;) {
      const std::uint32_t other = it->second;
      if (!words_equal(set_words(other), scratch_set_.data(), words_)) {
        ++it;
        continue;
      }
      const Time* theirs = frontiers(other);
      const std::vector<Time> their_frontiers(theirs, theirs + m_);
      if (scratch_ == their_frontiers) {
        ++counters_.states_merged;
        return true;
      }
      if (mm_frontiers_dominate(their_frontiers, scratch_)) {
        ++counters_.states_dominated;
        return true;
      }
      if (mm_frontiers_dominate(scratch_, their_frontiers)) {
        ++counters_.states_dominated;
        dead_[other] = 1;
        it = bucket_.erase(it);
        continue;
      }
      ++it;
    }
    const std::uint32_t child = commit(parent, j, slot, hash);
    next_.push_back(child);
    return true;
  }

  /// Energetic dead test on the canonicalized scratch_ frontiers: for every
  /// deadline D in increasing order, the remaining work due by D must fit
  /// into the machine-time the frontiers leave open before D,
  ///   sum_{remaining q : d_q <= D} p_q  <=  sum_s max(0, D - frontier_s);
  /// a violation proves no completion exists, whatever the placements.
  /// (Canonicalization clamps frontiers up to the remaining release floor,
  /// which only tightens the bound: no remaining job can use machine time
  /// before its release anyway.) Catches doomed states where every job
  /// still fits individually but the aggregate cannot — e.g. a saturated
  /// early wave abandoned while the search schedules later jobs.
  [[nodiscard]] bool energetic_dead(std::size_t placed) const {
    const std::uint64_t* words = parent_words_.data();
    Time work = 0;
    Time fsum = 0;      // sum of frontiers strictly below the current D
    std::size_t s = 0;  // count of those frontiers
    for (const std::size_t q : by_deadline_) {
      if (q == placed || ((words[q >> 6] >> (q & 63)) & 1)) continue;
      const Job& job = instance_.jobs[q];
      while (s < m_ && scratch_[s] < job.deadline) fsum += scratch_[s++];
      work += job.proc;
      if (work > static_cast<Time>(s) * job.deadline - fsum) return true;
    }
    return false;
  }

  std::uint32_t commit(std::uint32_t parent, std::size_t j, std::size_t slot,
                       std::uint64_t hash) {
    const auto id = static_cast<std::uint32_t>(parent_.size());
    set_pool_.insert(set_pool_.end(), scratch_set_.begin(), scratch_set_.end());
    frontier_pool_.insert(frontier_pool_.end(), scratch_.begin(),
                          scratch_.end());
    parent_.push_back(parent);
    edge_job_.push_back(static_cast<std::int32_t>(j));
    edge_slot_.push_back(static_cast<std::int32_t>(slot));
    dead_.push_back(0);
    bucket_.insert({hash, id});
    return id;
  }

  /// Replays the edge path, re-deriving every start from the same
  /// canonical frontier values the search used, with machine identities
  /// carried alongside.
  MMSchedule reconstruct() {
    std::vector<std::pair<std::int32_t, std::int32_t>> path;  // (job, slot)
    for (std::uint32_t id = complete_; parent_[id] != kNone;
         id = parent_[id]) {
      path.emplace_back(edge_job_[id], edge_slot_[id]);
    }
    std::reverse(path.begin(), path.end());

    MMSchedule schedule;
    schedule.machines = static_cast<int>(m_);
    std::vector<std::pair<Time, int>> machines(m_);  // (frontier, machine)
    for (std::size_t s = 0; s < m_; ++s) {
      machines[s] = {instance_.min_release(), static_cast<int>(s)};
    }
    std::vector<char> done(n_, 0);
    for (const auto& [job_index, slot] : path) {
      const Job& job = instance_.jobs[static_cast<std::size_t>(job_index)];
      done[static_cast<std::size_t>(job_index)] = 1;
      auto& target = machines[static_cast<std::size_t>(slot)];
      const Time start = std::max(target.first, job.release);
      schedule.jobs.push_back({job.id, target.second, start});
      target.first = start + job.proc;
      Time floor = kTimeMax;
      for (std::size_t q = 0; q < n_; ++q) {
        if (!done[q]) floor = std::min(floor, instance_.jobs[q].release);
      }
      if (floor != kTimeMax) {
        for (auto& entry : machines) {
          if (entry.first < floor) entry.first = floor;
        }
      }
      std::sort(machines.begin(), machines.end());
    }
    return schedule;
  }

  const Instance& instance_;
  std::size_t n_;
  std::size_t m_;
  std::size_t words_;
  std::int64_t budget_;
  std::vector<std::int32_t> twin_prev_;
  std::vector<std::size_t> by_deadline_;
  LimitPoller poller_;
  TraceContext* trace_;

  std::vector<std::uint64_t> set_pool_;
  std::vector<Time> frontier_pool_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::int32_t> edge_job_;
  std::vector<std::int32_t> edge_slot_;
  std::vector<char> dead_;

  std::unordered_multimap<std::uint64_t, std::uint32_t> bucket_;
  std::vector<std::uint32_t> next_;
  std::vector<std::size_t> remaining_;
  std::vector<std::uint64_t> parent_words_;  ///< expand()'s stable copies
  std::vector<Time> parent_frontiers_;
  std::vector<Time> scratch_;
  std::vector<std::uint64_t> scratch_set_;
  std::uint32_t complete_ = kNone;
  ExactSearchCounters counters_;
};

// ------------------------------------------------------------------ ISE --

class IseExplorer {
 public:
  IseExplorer(const Instance& instance, const StateSpaceIseOptions& options)
      : instance_(instance),
        options_(options),
        n_(instance.size()),
        m_(static_cast<std::size_t>(instance.machines)),
        words_((instance.size() + 63) / 64),
        twin_prev_(twin_prev_links(instance)),
        by_deadline_(instance.size()),
        poller_(options.limits, /*stride=*/256),
        trace_(options.trace) {
    cap_ = options.max_calibrations;
    if (options.upper_bound_hint > 0 && options.upper_bound_hint < cap_) {
      cap_ = options.upper_bound_hint;
    }
    for (std::size_t j = 0; j < n_; ++j) by_deadline_[j] = j;
    std::sort(by_deadline_.begin(), by_deadline_.end(),
              [&](std::size_t a, std::size_t b) {
                return instance.jobs[a].deadline < instance.jobs[b].deadline;
              });
  }

  StateSpaceIseResult run() {
    StateSpaceIseResult result;
    seed_root();
    std::vector<std::uint32_t> current{0};
    for (std::size_t layer = 0; layer < n_ && !current.empty(); ++layer) {
      TraceSpan span(trace_, "layer");
      bucket_.clear();
      next_.clear();
      for (const std::uint32_t id : current) {
        if (dead_[id]) continue;
        ++counters_.states_expanded;
        if (poller_.poll() != SolveStatus::kOk) return stop(poller_.status());
        if (!expand(id, layer)) return stop(SolveStatus::kLimitExceeded);
      }
      current.clear();
      for (const std::uint32_t id : next_) {
        if (!dead_[id]) current.push_back(id);
      }
      if (layer + 1 == n_) {
        // Final layer: the optimum is the fewest calibrations among
        // complete states.
        std::uint32_t best = kNone;
        for (const std::uint32_t id : current) {
          if (best == kNone || cals_[id] < cals_[best]) best = id;
        }
        if (best != kNone) {
          result.feasible = true;
          result.calibrations = static_cast<std::size_t>(cals_[best]);
          result.schedule = reconstruct(best);
        }
        return finish(std::move(result));
      }
    }
    return finish(std::move(result));  // no complete state within the cap
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr Time kNoNewCal = std::numeric_limits<Time>::min();

  StateSpaceIseResult stop(SolveStatus status) {
    StateSpaceIseResult result;
    result.status = status;
    return finish(std::move(result));
  }

  StateSpaceIseResult finish(StateSpaceIseResult result) {
    result.states = counters_.states_created;
    counters_.record(trace_);
    return result;
  }

  /// Placement rule: can `job` run inside `slot`? (TISE additionally nests
  /// the calibration window inside the job window.)
  [[nodiscard]] bool fits_slot(const Job& job, const IseSlot& slot) const {
    if (options_.require_tise &&
        !(job.release <= slot.end - instance_.T && slot.end <= job.deadline)) {
      return false;
    }
    const Time start = std::max(slot.free, job.release);
    return start + job.proc <= std::min(slot.end, job.deadline);
  }

  /// Integer start range of a fresh calibration that can host `job`
  /// (contiguous; see exact_ise.hpp's completeness note). Empty when
  /// lo > hi.
  [[nodiscard]] std::pair<Time, Time> new_cal_range(const Job& job) const {
    if (job.proc > instance_.T || job.release + job.proc > job.deadline) {
      return {1, 0};  // the job fits no calibration at all
    }
    if (options_.require_tise) {
      return {job.release, job.deadline - instance_.T};
    }
    return {job.release + job.proc - instance_.T, job.deadline - job.proc};
  }

  void seed_root() {
    Time floor_newcal = kTimeMax;
    for (const Job& job : instance_.jobs) {
      floor_newcal =
          std::min(floor_newcal, job.release + job.proc - instance_.T);
    }
    set_pool_.assign(words_, 0);
    slot_pool_.assign(m_, IseSlot{floor_newcal, floor_newcal});
    parent_.push_back(kNone);
    edge_job_.push_back(-1);
    edge_slot_.push_back(-1);
    edge_cal_.push_back(kNoNewCal);
    cals_.push_back(0);
    dead_.push_back(0);
    counters_.states_created = 1;
  }

  [[nodiscard]] const IseSlot* slots(std::uint32_t id) const noexcept {
    return slot_pool_.data() + static_cast<std::size_t>(id) * m_;
  }
  [[nodiscard]] const std::uint64_t* set_words(std::uint32_t id) const noexcept {
    return set_pool_.data() + static_cast<std::size_t>(id) * words_;
  }

  bool expand(std::uint32_t id, std::size_t layer) {
    // Copy the parent's records out of the pools: emit() appends to the
    // pools and would invalidate pointers into them.
    parent_words_.assign(set_words(id), set_words(id) + words_);
    parent_slots_.assign(slots(id), slots(id) + m_);
    const std::uint64_t* words = parent_words_.data();
    const IseSlot* base = parent_slots_.data();
    const std::int32_t parent_cals = cals_[id];
    remaining_.clear();
    MinPair release, latest, newcal_floor, min_proc;
    for (std::size_t j = 0; j < n_; ++j) {
      if ((words[j >> 6] >> (j & 63)) & 1) continue;
      remaining_.push_back(j);
      const Job& job = instance_.jobs[j];
      const auto key = static_cast<std::int32_t>(j);
      release.feed(job.release, key);
      latest.feed(job.deadline - job.proc, key);
      newcal_floor.feed(job.release + job.proc - instance_.T, key);
      min_proc.feed(job.proc, key);
    }
    for (const std::size_t j : remaining_) {
      // Canonical-representative rule: identical jobs go in index order.
      const std::int32_t twin = twin_prev_[j];
      if (twin >= 0 && !((words[twin >> 6] >> (twin & 63)) & 1)) continue;
      const Job& job = instance_.jobs[j];
      const auto key = static_cast<std::int32_t>(j);
      RemainingFloors floors;
      floors.release_floor = release.value_without(key);
      floors.new_cal_floor = newcal_floor.value_without(key);
      const Time child_latest = latest.value_without(key);
      const Time child_min_proc = min_proc.value_without(key);
      // Place into an existing calibration (one child per distinct slot).
      for (std::size_t s = 0; s < m_; ++s) {
        if (s > 0 && base[s] == base[s - 1]) continue;
        if (!fits_slot(job, base[s])) continue;
        const Time start = std::max(base[s].free, job.release);
        if (!emit(id, layer, j, s, kNoNewCal,
                  IseSlot{base[s].end, start + job.proc}, parent_cals, floors,
                  child_latest, child_min_proc)) {
          return false;
        }
      }
      // Open a fresh calibration. One candidate slot per distinct expiry —
      // among equal expiries, sacrificing the most-loaded slot leaves the
      // dominant remainder (sorted order: the last of the group).
      if (parent_cals < cap_) {
        const auto [lo, hi] = new_cal_range(job);
        for (std::size_t s = 0; s < m_; ++s) {
          if (s + 1 < m_ && base[s + 1].end == base[s].end) continue;
          for (Time t = std::max(lo, base[s].end); t <= hi; ++t) {
            const Time start = std::max(t, job.release);
            if (!emit(id, layer, j, s, t,
                      IseSlot{t + instance_.T, start + job.proc},
                      parent_cals + 1, floors, child_latest, child_min_proc)) {
              return false;
            }
          }
        }
      }
    }
    return true;
  }

  bool emit(std::uint32_t parent, std::size_t layer, std::size_t j,
            std::size_t slot, Time cal_start, IseSlot updated,
            std::int32_t cals, const RemainingFloors& floors,
            Time child_latest, Time child_min_proc) {
    if (++counters_.states_created > options_.state_budget) return false;
    const IseSlot* base = parent_slots_.data();  // expand()'s stable copy
    scratch_.clear();
    for (std::size_t s = 0; s < m_; ++s) {
      if (s != slot) scratch_.push_back(base[s]);
    }
    scratch_.insert(
        std::lower_bound(scratch_.begin(), scratch_.end(), updated), updated);
    const bool complete = layer + 1 == n_;
    if (!complete) {
      // Cheap no-job-fits test for rule 2: nothing shorter remains.
      canonicalize_ise_slots(scratch_, floors, [&](const IseSlot& s) {
        return s.free + child_min_proc <= s.end;
      });
      std::sort(scratch_.begin(), scratch_.end());
      if (is_dead(j, child_latest)) {
        ++counters_.states_pruned;
        return true;
      }
      if (energetic_dead(j, cals, floors)) {
        ++counters_.states_pruned;
        return true;
      }
    }
    scratch_set_ = parent_words_;
    scratch_set_[j >> 6] |= std::uint64_t{1} << (j & 63);
    const std::uint64_t hash = hash_words(scratch_set_);
    auto range = bucket_.equal_range(hash);
    for (auto it = range.first; it != range.second;) {
      const std::uint32_t other = it->second;
      if (!words_equal(set_words(other), scratch_set_.data(), words_)) {
        ++it;
        continue;
      }
      const IseSlot* theirs = slots(other);
      const std::vector<IseSlot> their_slots(theirs, theirs + m_);
      if (cals_[other] == cals && scratch_ == their_slots) {
        ++counters_.states_merged;
        return true;
      }
      if (cals_[other] <= cals && ise_slots_dominate(their_slots, scratch_)) {
        ++counters_.states_dominated;
        return true;
      }
      if (cals <= cals_[other] && ise_slots_dominate(scratch_, their_slots)) {
        ++counters_.states_dominated;
        dead_[other] = 1;
        it = bucket_.erase(it);
        continue;
      }
      ++it;
    }
    const auto id = static_cast<std::uint32_t>(parent_.size());
    set_pool_.insert(set_pool_.end(), scratch_set_.begin(), scratch_set_.end());
    slot_pool_.insert(slot_pool_.end(), scratch_.begin(), scratch_.end());
    parent_.push_back(parent);
    edge_job_.push_back(static_cast<std::int32_t>(j));
    edge_slot_.push_back(static_cast<std::int32_t>(slot));
    edge_cal_.push_back(cal_start);
    cals_.push_back(cals);
    dead_.push_back(0);
    bucket_.insert({hash, id});
    next_.push_back(id);
    return true;
  }

  /// Dead-state test on the freshly canonicalized scratch_ slots: some
  /// remaining job (j excluded — it was just placed) can run neither in an
  /// existing slot nor in any future calibration. Fast path: the earliest
  /// expiry still allows a fresh calibration for every remaining job.
  [[nodiscard]] bool is_dead(std::size_t placed, Time child_latest) const {
    const Time min_end = scratch_.front().end;
    if (min_end <= child_latest) return false;
    for (const std::size_t q : remaining_) {
      if (q == placed) continue;
      const Job& job = instance_.jobs[q];
      bool hosted = false;
      for (const IseSlot& slot : scratch_) {
        if (fits_slot(job, slot)) {
          hosted = true;
          break;
        }
      }
      if (hosted) continue;
      const auto [lo, hi] = new_cal_range(job);
      if (std::max(lo, min_end) > hi) return true;
    }
    return false;
  }

  /// Energetic dead test, ISE flavor: remaining work due by each deadline D
  /// must fit into the usable slot time before D plus what the remaining
  /// calibration allowance could open,
  ///   sum_{remaining q : d_q <= D} p_q
  ///     <= sum_slots max(0, min(end, D) - free)
  ///        + (cap - cals) * min(T, max(0, D - new_cal_floor)),
  /// since a future calibration starts no earlier than the remaining
  /// new-calibration floor and contributes at most T units before any D.
  /// A pure capacity relaxation (single-calibration containment and the
  /// machine overlap constraint are ignored), so a violation is a proof.
  [[nodiscard]] bool energetic_dead(std::size_t placed, std::int32_t cals,
                                    const RemainingFloors& floors) const {
    const std::uint64_t* words = parent_words_.data();
    const auto allowance = static_cast<Time>(cap_ - cals);
    Time work = 0;
    for (const std::size_t q : by_deadline_) {
      if (q == placed || ((words[q >> 6] >> (q & 63)) & 1)) continue;
      const Job& job = instance_.jobs[q];
      work += job.proc;
      Time capacity =
          allowance * std::min<Time>(instance_.T,
                                     std::max<Time>(0, job.deadline -
                                                           floors.new_cal_floor));
      if (work <= capacity) continue;  // fresh calibrations already suffice
      for (const IseSlot& slot : scratch_) {
        const Time usable = std::min(slot.end, job.deadline) - slot.free;
        if (usable > 0) capacity += usable;
      }
      if (work > capacity) return true;
    }
    return false;
  }

  Schedule reconstruct(std::uint32_t leaf) {
    struct Move {
      std::int32_t job;
      std::int32_t slot;
      Time cal_start;
    };
    std::vector<Move> path;
    for (std::uint32_t id = leaf; parent_[id] != kNone; id = parent_[id]) {
      path.push_back({edge_job_[id], edge_slot_[id], edge_cal_[id]});
    }
    std::reverse(path.begin(), path.end());

    Schedule schedule =
        Schedule::empty_like(instance_, static_cast<int>(m_));
    struct ReplaySlot {
      IseSlot slot;
      int machine;
      bool operator<(const ReplaySlot& o) const noexcept {
        if (slot.end != o.slot.end) return slot.end < o.slot.end;
        if (slot.free != o.slot.free) return slot.free < o.slot.free;
        return machine < o.machine;
      }
    };
    Time floor_newcal = kTimeMax;
    for (const Job& job : instance_.jobs) {
      floor_newcal =
          std::min(floor_newcal, job.release + job.proc - instance_.T);
    }
    std::vector<ReplaySlot> machines(m_);
    for (std::size_t s = 0; s < m_; ++s) {
      machines[s] = {{floor_newcal, floor_newcal}, static_cast<int>(s)};
    }
    std::vector<char> done(n_, 0);
    for (const Move& move : path) {
      const auto j = static_cast<std::size_t>(move.job);
      const Job& job = instance_.jobs[j];
      done[j] = 1;
      ReplaySlot& target = machines[static_cast<std::size_t>(move.slot)];
      if (move.cal_start != kNoNewCal) {
        schedule.calibrations.push_back({target.machine, move.cal_start});
        target.slot.end = move.cal_start + instance_.T;
        target.slot.free = move.cal_start;
      }
      const Time start = std::max(target.slot.free, job.release);
      schedule.jobs.push_back({job.id, target.machine, start});
      target.slot.free = start + job.proc;
      // Re-apply the exact canonicalization the search used, so the next
      // move's slot index addresses the same sorted multiset of values.
      RemainingFloors floors{kTimeMax, kTimeMax};
      Time min_proc = kTimeMax;
      for (std::size_t q = 0; q < n_; ++q) {
        if (done[q]) continue;
        const Job& rest = instance_.jobs[q];
        floors.release_floor = std::min(floors.release_floor, rest.release);
        floors.new_cal_floor = std::min(
            floors.new_cal_floor, rest.release + rest.proc - instance_.T);
        min_proc = std::min(min_proc, rest.proc);
      }
      if (min_proc != kTimeMax) {
        for (ReplaySlot& rs : machines) {
          IseSlot canonical = rs.slot;
          std::vector<IseSlot> one{canonical};
          canonicalize_ise_slots(one, floors, [&](const IseSlot& s) {
            return s.free + min_proc <= s.end;
          });
          rs.slot = one[0];
        }
      }
      std::sort(machines.begin(), machines.end());
    }
    schedule.normalize();
    return schedule;
  }

  const Instance& instance_;
  StateSpaceIseOptions options_;
  std::size_t n_;
  std::size_t m_;
  std::size_t words_;
  std::vector<std::int32_t> twin_prev_;
  std::vector<std::size_t> by_deadline_;
  std::int32_t cap_;
  LimitPoller poller_;
  TraceContext* trace_;

  std::vector<std::uint64_t> set_pool_;
  std::vector<IseSlot> slot_pool_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::int32_t> edge_job_;
  std::vector<std::int32_t> edge_slot_;
  std::vector<Time> edge_cal_;
  std::vector<std::int32_t> cals_;
  std::vector<char> dead_;

  std::unordered_multimap<std::uint64_t, std::uint32_t> bucket_;
  std::vector<std::uint32_t> next_;
  std::vector<std::size_t> remaining_;
  std::vector<std::uint64_t> parent_words_;  ///< expand()'s stable copies
  std::vector<IseSlot> parent_slots_;
  std::vector<IseSlot> scratch_;
  std::vector<std::uint64_t> scratch_set_;
  ExactSearchCounters counters_;
};

}  // namespace

StateSpaceMmResult state_space_mm_feasible(const Instance& instance,
                                           int machines,
                                           std::int64_t state_budget,
                                           const RunLimits& limits,
                                           TraceContext* trace) {
  StateSpaceMmResult result;
  if (instance.empty()) {
    result.feasible = true;
    result.schedule.machines = machines;
    return result;
  }
  MmExplorer explorer(instance, machines, state_budget, limits, trace);
  return explorer.run();
}

StateSpaceIseResult state_space_ise_minimize(
    const Instance& instance, const StateSpaceIseOptions& options) {
  StateSpaceIseResult result;
  if (instance.empty()) {
    result.feasible = true;
    result.schedule = Schedule::empty_like(instance, instance.machines);
    return result;
  }
  IseExplorer explorer(instance, options);
  return explorer.run();
}

}  // namespace calisched
