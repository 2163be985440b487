// Seed salts: the one definition of every RNG substream universe.
//
// A substream is a seed folded with a salt (`mix64(seed ^ salt)`, or a
// derive_task_seeds() fork chain rooted there). Two salts that collide
// would make two supposedly independent streams replay the same draws, so
// every salt lives in this table and the static_assert below keeps them
// pairwise distinct. The values are ASCII tags; changing one changes every
// measurement that draws from its stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cen::salts {

// Measurement-stage task seeds (scenario::derive_task_seeds), shared by
// the pipeline, the CenTrace fan-out and the campaign, so one task
// identity replays the same substream on every path.
inline constexpr std::uint64_t kTraceStage = 0x747261636531ULL;  // "trace1"
inline constexpr std::uint64_t kProbeStage = 0x70726f626532ULL;  // "probe2"
inline constexpr std::uint64_t kFuzzStage = 0x66757a7a33ULL;     // "fuzz3"
inline constexpr std::uint64_t kAmbigStage = 0x616d62696734ULL;  // "ambig4"

// CenTrace's tomography scheduler (centrace/degrade.cpp).
inline constexpr std::uint64_t kTomography = 0x746f6d6f3176ULL;  // "tomo1v"

// Fault-layer RNG of every network and epoch (netsim/engine.cpp).
inline constexpr std::uint64_t kFaultSeed = 0x66616c7453696dULL;  // "faltSim"

// Blackhole draw of the silent-censor scenarios (scenario/silent.cpp).
inline constexpr std::uint64_t kSilent = 0x73696c656e74ULL;  // "silent"

// Worldgen phases (worldgen/generate.cpp): editing one generation phase
// never shifts the draws of another.
inline constexpr std::uint64_t kWorldTopology = 0x776c64746f706fULL;  // "wldtopo"
inline constexpr std::uint64_t kWorldRegime = 0x776c64726567ULL;      // "wldreg"
inline constexpr std::uint64_t kWorldEndpoint = 0x776c646570ULL;      // "wldep"
inline constexpr std::uint64_t kWorldNetwork = 0x776f726c64ULL;       // "world"

inline constexpr std::array kAll = {
    kTraceStage, kProbeStage,   kFuzzStage,     kAmbigStage,   kTomography,   kFaultSeed,
    kSilent,     kWorldTopology, kWorldRegime, kWorldEndpoint, kWorldNetwork,
};

constexpr bool all_distinct() {
  for (std::size_t i = 0; i < kAll.size(); ++i) {
    for (std::size_t j = i + 1; j < kAll.size(); ++j) {
      if (kAll[i] == kAll[j]) return false;
    }
  }
  return true;
}
static_assert(all_distinct(), "two seed salts are equal");

}  // namespace cen::salts
