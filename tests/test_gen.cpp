// Property tests for the instance generators: every family produces
// well-formed instances with its advertised shape, deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "runtime/batch.hpp"

namespace calisched {
namespace {

GenParams sweep_params(std::uint64_t seed) {
  GenParams params;
  params.seed = seed;
  params.n = 4 + static_cast<int>(seed % 20);
  params.T = 3 + static_cast<Time>(seed % 12);
  params.machines = 1 + static_cast<int>(seed % 4);
  params.horizon = (4 + static_cast<Time>(seed % 12)) * params.T;
  params.min_proc = 1;
  params.max_proc = params.T + 5;  // generator must clamp to T
  return params;
}

TEST(Generators, LongWindowShape) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const GenParams params = sweep_params(seed);
    const Instance instance = generate_long_window(params);
    EXPECT_FALSE(instance.validate().has_value()) << "seed " << seed;
    EXPECT_EQ(instance.size(), static_cast<std::size_t>(params.n));
    for (const Job& job : instance.jobs) {
      EXPECT_TRUE(job.is_long(instance.T)) << "seed " << seed;
      EXPECT_LE(job.window(), 6 * instance.T) << "seed " << seed;
      EXPECT_GE(job.release, 0);
      EXPECT_LE(job.proc, instance.T);
    }
  }
}

TEST(Generators, ShortWindowShape) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const GenParams params = sweep_params(seed);
    const Instance instance = generate_short_window(params);
    EXPECT_FALSE(instance.validate().has_value()) << "seed " << seed;
    for (const Job& job : instance.jobs) {
      EXPECT_FALSE(job.is_long(instance.T)) << "seed " << seed;
      EXPECT_GE(job.window(), job.proc);
    }
  }
}

TEST(Generators, ShortWindowSlackFloor) {
  GenParams params = sweep_params(5);
  params.T = 10;
  const Instance instance = generate_short_window(params, /*slack_min=*/3);
  for (const Job& job : instance.jobs) {
    // Window >= p + 3 unless clamped by the 2T - 1 ceiling.
    EXPECT_TRUE(job.window() >= job.proc + 3 ||
                job.window() == 2 * instance.T - 1)
        << "job " << job.id;
  }
}

TEST(Generators, MixedRespectsFractionExtremes) {
  GenParams params = sweep_params(7);
  const Instance all_long = generate_mixed(params, 1.0);
  for (const Job& job : all_long.jobs) {
    EXPECT_TRUE(job.is_long(all_long.T));
  }
  const Instance all_short = generate_mixed(params, 0.0);
  for (const Job& job : all_short.jobs) {
    EXPECT_FALSE(job.is_long(all_short.T));
  }
}

TEST(Generators, UnitJobsAreUnit) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate_unit(sweep_params(seed), 7);
    EXPECT_FALSE(instance.validate().has_value());
    for (const Job& job : instance.jobs) {
      EXPECT_EQ(job.proc, 1);
      EXPECT_LE(job.window(), 7);
    }
  }
}

TEST(Generators, PartitionAdversarialInvariants) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = generate_partition_adversarial(seed, 4, 7);
    EXPECT_FALSE(instance.validate().has_value());
    EXPECT_EQ(instance.machines, 2);
    EXPECT_EQ(instance.size(), 8u);
    EXPECT_EQ(instance.total_work(), 2 * instance.T);
    for (const Job& job : instance.jobs) {
      EXPECT_EQ(job.release, 0);
      EXPECT_EQ(job.deadline, instance.T);
    }
    // The mirrored construction means a perfect partition exists: the two
    // halves of the job list have equal work.
    Time first_half = 0;
    for (std::size_t j = 0; j < instance.size() / 2; ++j) {
      first_half += instance.jobs[j].proc;
    }
    EXPECT_EQ(first_half, instance.T);
  }
}

TEST(Generators, ClusteredShape) {
  for (const bool long_windows : {false, true}) {
    const Instance instance =
        generate_clustered(sweep_params(9), 3, 6, long_windows);
    EXPECT_FALSE(instance.validate().has_value());
    for (const Job& job : instance.jobs) {
      EXPECT_EQ(job.is_long(instance.T), long_windows);
      EXPECT_GE(job.release, 0);
    }
  }
}

TEST(Generators, DeterministicPerSeed) {
  for (std::uint64_t seed : {1ULL, 17ULL, 999ULL}) {
    const GenParams params = sweep_params(seed);
    const Instance a = generate_mixed(params, 0.4);
    const Instance b = generate_mixed(params, 0.4);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i], b.jobs[i]) << "seed " << seed;
    }
  }
}

TEST(Generators, ProcClampedToT) {
  GenParams params = sweep_params(3);
  params.min_proc = 50;
  params.max_proc = 100;
  params.T = 6;
  const Instance instance = generate_long_window(params);
  EXPECT_FALSE(instance.validate().has_value());
  for (const Job& job : instance.jobs) EXPECT_LE(job.proc, 6);
}

// --- Named families --------------------------------------------------------

std::string instance_text(const Instance& instance) {
  std::ostringstream out;
  write_instance(out, instance);
  return out.str();
}

// 64-bit FNV-1a over the instance file bytes.
std::uint64_t text_hash(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The `calisched --generate` defaults: seed 1, n = 12, T = 10, two machines,
// horizon 10T, processing times up to T.
GenParams cli_default_params() {
  GenParams params;
  params.seed = 1;
  params.n = 12;
  params.T = 10;
  params.machines = 2;
  params.horizon = 100;
  params.max_proc = 10;
  return params;
}

// Golden hashes of the instance files the family table writes. Any change
// to a generator or to a family's defaults changes the files that the
// benchmark, the batch driver and every saved seed rebuild.
TEST(GenerateFamily, GoldenFilesAtCliDefaults) {
  struct Golden {
    std::string family;
    FamilyOptions options;
    std::uint64_t hash;
  };
  const std::vector<Golden> goldens = {
      {"mixed", {}, 0x99976bd9ed6543a0ULL},
      {"long", {}, 0x0ebfbeb860f92380ULL},
      {"short", {}, 0xcd0309e6beb2d084ULL},
      {"unit", {}, 0x3bce8f9db2ec49ceULL},
      {"clustered", {}, 0x239dbb383f02c262ULL},
      {"clustered", {.long_windows = true}, 0xdd2dab1c0be24011ULL},
      {"calib-cheap-short", {}, 0x573a8b8fde3449f1ULL},
      {"calib-expensive-long", {}, 0xe348e4cbc4a8ed07ULL},
      {"calib-delayed", {}, 0xf9f9e714a1e73920ULL},
      {"online-poisson", {}, 0x859d122da2d34efdULL},
      {"online-burst", {}, 0xfee411210f8265f8ULL},
      {"online-drip", {}, 0x597bc4b953fa3167ULL},
  };
  for (const Golden& golden : goldens) {
    const Instance instance =
        generate_family(golden.family, cli_default_params(), golden.options);
    EXPECT_EQ(text_hash(instance_text(instance)), golden.hash)
        << golden.family << (golden.options.long_windows ? " long-windows" : "");
  }
}

// The benchmark's two offline shapes (perfbench/run.py).
TEST(GenerateFamily, GoldenFilesAtBenchmarkShapes) {
  GenParams mixed = cli_default_params();
  mixed.n = 400;
  mixed.horizon = 4000;
  mixed.seed = 1001;
  const Instance long_mix = generate_family("mixed", mixed);
  EXPECT_EQ(long_mix.size(), 400u);
  EXPECT_EQ(text_hash(instance_text(long_mix)), 0xc962c39f8f7f27dbULL);

  GenParams short_params = cli_default_params();
  short_params.n = 800;
  short_params.horizon = 8000;
  short_params.seed = 2002;
  const Instance short_windows = generate_family("short", short_params);
  EXPECT_EQ(short_windows.size(), 800u);
  EXPECT_EQ(text_hash(instance_text(short_windows)), 0x941a809cbd7d4308ULL);
}

// A batch record's seed rebuilds its instance through generate_family, for
// every family and with non-default family options passed through.
TEST(GenerateFamily, BatchInstanceEqualsFamilyAtDerivedSeed) {
  for (const FamilyOptions& options :
       {FamilyOptions{}, FamilyOptions{.bursts = 2, .mean_gap = 3.0}}) {
    for (const char* family :
         {"mixed", "long", "short", "unit", "clustered", "calib-cheap-short",
          "calib-expensive-long", "calib-delayed", "online-poisson",
          "online-burst", "online-drip"}) {
      BatchSpec spec;
      spec.family = family;
      spec.count = 4;
      spec.params = cli_default_params();
      spec.params.seed = 4;
      spec.options = options;
      std::vector<std::uint64_t> seeds;
      const std::vector<Instance> batch = generate_batch(spec, &seeds);
      ASSERT_EQ(batch.size(), spec.count);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        GenParams params = spec.params;
        params.seed = derive_instance_seed(spec.params.seed, i);
        EXPECT_EQ(seeds[i], params.seed);
        EXPECT_EQ(instance_text(batch[i]),
                  instance_text(generate_family(family, params, options)))
            << family << " instance " << i;
      }
    }
  }
}

}  // namespace
}  // namespace calisched
