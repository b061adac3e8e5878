// Per-site transaction profiling: static TxSite descriptors registered at
// lock-elision entry points, per-thread × per-site counters, and the shared
// observability flag word.
//
// Cost model: when nothing is enabled the engine pays exactly one relaxed
// load of the flag word per event site (obs::flags(), which also gates the
// flight recorder — tracing and profiling share the word). When profiling is
// on, counter bumps are owner-thread relaxed fetch_adds into a lazily
// allocated per-slot table, so there is no cross-thread contention on the
// hot path; aggregation (export.hpp) reads the tables concurrently.
#pragma once

#include <atomic>
#include <cstdint>

#include "tm/config.hpp"
#include "tm/obs/histogram.hpp"

namespace tle::obs {

/// Capacity of the static site registry. Id 0 is reserved for "(unnamed)"
/// top-level sections (and absorbs registrations past the cap).
inline constexpr int kMaxSites = 128;

// ---------------------------------------------------------------------------
// Shared observability flags (one word gates both subsystems)
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kTraceBit = 1u;    ///< flight recorder on
inline constexpr std::uint32_t kProfileBit = 2u;  ///< per-site profiling on
inline constexpr std::uint32_t kMetricsBit = 4u;  ///< interval metrics on

namespace detail {
extern std::atomic<std::uint32_t> g_flags;
}

/// The one relaxed load every engine event site pays when idle.
inline std::uint32_t flags() noexcept {
  return detail::g_flags.load(std::memory_order_relaxed);
}

inline bool profiling_enabled() noexcept { return flags() & kProfileBit; }

void set_flag(std::uint32_t bit, bool on) noexcept;

/// Turn per-site profiling on/off (trace::enable drives the other bit).
inline void profile_enable(bool on) noexcept { set_flag(kProfileBit, on); }

// ---------------------------------------------------------------------------
// Site registry
// ---------------------------------------------------------------------------

/// A named lock-elision entry point. Construct through TLE_TX_SITE so each
/// lexical site registers exactly once (function-local static) and carries
/// its file:line provenance.
struct TxSite {
  std::uint16_t id;
  TxSite(const char* name, const char* file, int line) noexcept;
};

struct SiteInfo {
  const char* name;
  const char* file;
  int line;
};

/// Number of registered sites including the reserved id 0.
int site_count() noexcept;

/// Registrations that arrived after the registry filled and were folded
/// into id 0. Surfaces in aggregate_stats() as obs_site_overflow and as a
/// warning line in StatsSnapshot::report(); never reset (the registry stays
/// full for the life of the process).
std::uint64_t site_overflow_count() noexcept;

/// Descriptor for a registered site id (valid for 0 <= id < site_count()).
SiteInfo site_info(int id) noexcept;

// ---------------------------------------------------------------------------
// Per-thread × per-site counters
// ---------------------------------------------------------------------------

struct SiteCounters {
  using Counter = std::atomic<std::uint64_t>;

  Counter attempts{0};          ///< speculative begins at this site
  Counter commits{0};           ///< speculative commits
  Counter serial_fallbacks{0};  ///< gave up speculating, took the token
  Counter serial_commits{0};    ///< irrevocable executions completed
  Counter lock_sections{0};     ///< runs under the real lock (Lock mode)
  Counter htm_retries{0};       ///< HTM re-attempts after an abort
  Counter quiesce_waits{0};     ///< post-commit quiesces that blocked
  Counter drain_waits{0};       ///< governor serial-pending drain waits
  Counter storm_gated{0};       ///< attempts held at the abort-storm gate
  Counter watchdog_escalations{0};  ///< starvation escalations to serial
  Counter stripe_bumps{0};          ///< commit stripes acquired by commits
  Counter stripe_false_revalidations{0};  ///< stripe moved, values unchanged
  Counter lazy_sub_commits{0};      ///< commits under lazy subscription
  Counter htm_routed_frees{0};    ///< serial-exit frees limbo-routed: HTM risk
  Counter priv_limbo_routed{0};   ///< tm_private_free blocks parked in limbo
  Counter audit_hazard_arms{0};   ///< §IV-C hazards armed by this site's commits
  Counter aborts[static_cast<int>(AbortCause::kCount)] = {};

  LatencyHist attempt_ns;  ///< duration of each attempt (commit or abort)
  LatencyHist quiesce_ns;  ///< commit-to-quiesce-completion time
};

/// The calling slot's site-counter table, allocated on first use (never
/// freed: slots are recycled across threads, like ThreadSlot::stats).
SiteCounters* thread_site_table(int slot) noexcept;

/// Table for `slot` if it has one, else nullptr (aggregation-side accessor).
SiteCounters* peek_site_table(int slot) noexcept;

inline SiteCounters& site_counters(int slot, std::uint16_t site) noexcept {
  return thread_site_table(slot)[site < kMaxSites ? site : 0];
}

/// Zero every allocated table (benchmark harnesses; not thread-safe against
/// concurrent profiled transactions producing exact totals, same caveat as
/// reset_stats()).
void reset_site_profiles() noexcept;

}  // namespace tle::obs

/// Expands to a reference to this lexical site's registered descriptor.
/// Usage: tle::critical(m, TLE_TX_SITE("videnc/claim_row"), [&](auto& tx) ...)
#define TLE_TX_SITE(name_literal)                              \
  ([]() noexcept -> const ::tle::obs::TxSite& {                \
    static const ::tle::obs::TxSite tle_site_{                 \
        name_literal, __FILE__, __LINE__};                     \
    return tle_site_;                                          \
  }())
