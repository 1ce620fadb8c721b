#include "perf/pmu.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/timer.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#define GRAN_PMU_HAVE_PERF 1
#else
#define GRAN_PMU_HAVE_PERF 0
#endif

namespace gran::perf {
namespace {

std::atomic<pmu_open_fn> g_open_override{nullptr};

#if GRAN_PMU_HAVE_PERF

struct event_spec {
  std::uint32_t type;
  std::uint64_t config;
};

// Ordered so a rung is a prefix: full = 5 events, reduced = 3, minimal = 2.
// The leader (cycles) is always index 0.
constexpr event_spec k_group_events[5] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
};

int rung_events(pmu_mode m) {
  switch (m) {
    case pmu_mode::full: return 5;
    case pmu_mode::reduced: return 3;
    case pmu_mode::minimal: return 2;
    default: return 0;
  }
}

// Self-attach one event on the calling thread. Counting kernel-side work is
// preferred (scheduler overhead lives there too), but perf_event_paranoid>=2
// denies it, so retry excluding the kernel before giving up on the event.
int open_event(std::uint32_t type, std::uint64_t config, int group_fd,
               std::uint64_t read_format, bool start_disabled) {
  if (pmu_open_fn fn = g_open_override.load(std::memory_order_acquire))
    return fn(type, config, group_fd);
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.read_format = read_format;
  attr.disabled = start_disabled ? 1 : 0;
  attr.exclude_hv = 1;
  attr.exclude_idle = 1;
  long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, group_fd,
                      PERF_FLAG_FD_CLOEXEC);
  if (fd < 0 && (errno == EPERM || errno == EACCES)) {
    attr.exclude_kernel = 1;
    fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, group_fd,
                   PERF_FLAG_FD_CLOEXEC);
  }
  return static_cast<int>(fd);
}

constexpr std::uint64_t k_group_format = PERF_FORMAT_GROUP |
                                         PERF_FORMAT_TOTAL_TIME_ENABLED |
                                         PERF_FORMAT_TOTAL_TIME_RUNNING;
constexpr std::uint64_t k_single_format =
    PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;

// Multiplexing compensation: value * enabled/running, in double to dodge the
// u64 overflow of the integer product. running == 0 means the event never
// got a counter — report the raw (zero) value rather than dividing by zero.
std::uint64_t scale_count(std::uint64_t value, std::uint64_t enabled,
                          std::uint64_t running) {
  if (running == 0 || running >= enabled) return value;
  const double scaled = static_cast<double>(value) *
                        (static_cast<double>(enabled) /
                         static_cast<double>(running));
  return static_cast<std::uint64_t>(scaled);
}

#endif  // GRAN_PMU_HAVE_PERF

std::uint64_t rusage_ctx_switches() {
#if GRAN_PMU_HAVE_PERF
  rusage ru;
  if (::getrusage(RUSAGE_THREAD, &ru) == 0)
    return static_cast<std::uint64_t>(ru.ru_nvcsw) +
           static_cast<std::uint64_t>(ru.ru_nivcsw);
#endif
  return 0;
}

}  // namespace

const char* pmu_mode_name(pmu_mode m) noexcept {
  switch (m) {
    case pmu_mode::off: return "off";
    case pmu_mode::full: return "full";
    case pmu_mode::reduced: return "reduced";
    case pmu_mode::minimal: return "minimal";
    case pmu_mode::software: return "software";
  }
  return "?";
}

int pmu_events_unavailable(pmu_mode m) noexcept {
  switch (m) {
    case pmu_mode::off: return 0;
    case pmu_mode::full: return 0;
    case pmu_mode::reduced: return 2;   // branch-misses, stalled-backend
    case pmu_mode::minimal: return 3;   // + LLC-misses
    case pmu_mode::software: return 4;  // everything but cycles (rdtsc)
  }
  return 0;
}

void set_pmu_open_for_test(pmu_open_fn fn) {
  g_open_override.store(fn, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// pmu_reader

pmu_reader::pmu_reader(pmu_mode start) { open_group(start); }

pmu_reader::~pmu_reader() { close_fds(); }

void pmu_reader::close_fds() noexcept {
#if GRAN_PMU_HAVE_PERF
  // A perf event is destroyed when its fd closes, so members keep their fds
  // for the group's lifetime even though reads all go through the leader.
  for (int& fd : member_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (group_fd_ >= 0) ::close(group_fd_);
  if (ctx_fd_ >= 0) ::close(ctx_fd_);
#else
  for (int& fd : member_fds_) fd = -1;
#endif
  group_fd_ = -1;
  ctx_fd_ = -1;
  group_events_ = 0;
}

void pmu_reader::open_group(pmu_mode start) {
#if GRAN_PMU_HAVE_PERF
  if (start == pmu_mode::software) {
    mode_ = pmu_mode::software;
  } else {
    // Walk the ladder from the requested rung down: open the leader plus a
    // prefix of members; any failure closes the partial group and tries the
    // next (narrower) rung. PMUs with few programmable counters reject wide
    // groups only at read time (the group never schedules), so a paranoid
    // fallback at read() exists too — see sample().
    for (pmu_mode rung = start; rung != pmu_mode::software;
         rung = static_cast<pmu_mode>(static_cast<int>(rung) + 1)) {
      const int want = rung_events(rung);
      int leader = open_event(k_group_events[0].type, k_group_events[0].config,
                              -1, k_group_format, /*start_disabled=*/true);
      if (leader < 0) break;  // no cycles counter at all -> software
      int members[4] = {-1, -1, -1, -1};
      bool ok = true;
      for (int i = 1; i < want; ++i) {
        members[i - 1] =
            open_event(k_group_events[i].type, k_group_events[i].config,
                       leader, k_group_format, /*start_disabled=*/false);
        if (members[i - 1] < 0) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        for (int fd : members)
          if (fd >= 0) ::close(fd);
        ::close(leader);
        continue;
      }
      group_fd_ = leader;
      for (int i = 0; i < 4; ++i) member_fds_[i] = members[i];
      group_events_ = want;
      mode_ = rung;
      ::ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
      ::ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
      break;
    }
    if (group_fd_ < 0) mode_ = pmu_mode::software;
  }
  // Context switches ride a software event independent of the hardware
  // group: it can succeed when the PMU is denied (paranoid<=2 allows
  // software events) and fail when seccomp blocks the syscall entirely —
  // either way rusage covers the gap.
  ctx_fd_ = open_event(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES, -1,
                       k_single_format, /*start_disabled=*/false);
  if (ctx_fd_ < 0) ctx_fd_ = -1;
#else
  (void)start;
  mode_ = pmu_mode::software;
#endif
}

void pmu_reader::sample(pmu_sample& out) noexcept {
  out = pmu_sample{};
#if GRAN_PMU_HAVE_PERF
  if (mode_ != pmu_mode::software && group_fd_ >= 0) {
    // One batched read of the whole group:
    //   { u64 nr; u64 time_enabled; u64 time_running; u64 values[nr]; }
    std::uint64_t buf[3 + 5] = {};
    const ssize_t want =
        static_cast<ssize_t>((3 + group_events_) * sizeof(std::uint64_t));
    const ssize_t got = ::read(group_fd_, buf, sizeof(buf));
    if (got != want || buf[0] != static_cast<std::uint64_t>(group_events_)) {
      // Unschedulable group or dead fd (cgroup change, fuzzed shim fd):
      // degrade this reader permanently rather than report garbage.
      close_fds();
      mode_ = pmu_mode::software;
    } else {
      const std::uint64_t enabled = buf[1], running = buf[2];
      const auto val = [&](int i) { return scale_count(buf[3 + i], enabled, running); };
      out.cycles = val(0);
      out.instructions = val(1);
      if (group_events_ >= 3) out.llc_misses = val(2);
      if (group_events_ >= 5) {
        out.branch_misses = val(3);
        out.stalled_backend = val(4);
      }
    }
  }
  if (ctx_fd_ >= 0) {
    std::uint64_t cbuf[3] = {};
    if (::read(ctx_fd_, cbuf, sizeof(cbuf)) ==
        static_cast<ssize_t>(sizeof(cbuf))) {
      out.ctx_switches = scale_count(cbuf[0], cbuf[1], cbuf[2]);
    } else {
      ::close(ctx_fd_);
      ctx_fd_ = -1;
    }
  }
  if (ctx_fd_ < 0) out.ctx_switches = rusage_ctx_switches();
#else
  out.ctx_switches = rusage_ctx_switches();
#endif
  if (mode_ == pmu_mode::software) out.cycles = rdtsc();
}

// ---------------------------------------------------------------------------
// pmu_plane

pmu_plane& pmu_plane::instance() {
  static pmu_plane plane;
  return plane;
}

void pmu_plane::configure(const std::string& spec) {
  configured_.store(true, std::memory_order_relaxed);
  if (spec.empty() || spec == "0" || spec == "off") {
    enabled_.store(false, std::memory_order_relaxed);
    force_software_.store(false, std::memory_order_relaxed);
    negotiated_.store(0, std::memory_order_relaxed);
    return;
  }
  const bool software = (spec == "sw" || spec == "software");
  force_software_.store(software, std::memory_order_relaxed);
  negotiated_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

std::unique_ptr<pmu_reader> pmu_plane::create_reader() {
  if (!enabled()) return nullptr;
  pmu_mode start = pmu_mode::full;
  if (force_software_.load(std::memory_order_relaxed)) {
    start = pmu_mode::software;
  } else {
    const int seen = negotiated_.load(std::memory_order_acquire);
    if (seen != 0) start = static_cast<pmu_mode>(seen);
  }
  std::unique_ptr<pmu_reader> r(new pmu_reader(start));
  // Record the worst rung seen so far; later readers skip the rungs a
  // sibling already found denied (no EPERM storm on wide fleets).
  int landed = static_cast<int>(r->mode());
  int cur = negotiated_.load(std::memory_order_acquire);
  while (cur < landed &&
         !negotiated_.compare_exchange_weak(cur, landed,
                                            std::memory_order_acq_rel)) {
  }
  if (r->mode() != pmu_mode::full &&
      !warned_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "gran: pmu degraded to %s mode (%d hardware event(s) "
                 "unavailable; check /proc/sys/kernel/perf_event_paranoid "
                 "or container seccomp policy)\n",
                 pmu_mode_name(r->mode()),
                 pmu_events_unavailable(r->mode()));
  }
  return r;
}

pmu_mode pmu_plane::mode() const noexcept {
  if (!enabled()) return pmu_mode::off;
  if (force_software_.load(std::memory_order_relaxed))
    return pmu_mode::software;
  const int seen = negotiated_.load(std::memory_order_acquire);
  return seen == 0 ? pmu_mode::full : static_cast<pmu_mode>(seen);
}

void pmu_plane::reset_for_test() {
  enabled_.store(false, std::memory_order_relaxed);
  force_software_.store(false, std::memory_order_relaxed);
  negotiated_.store(0, std::memory_order_relaxed);
  warned_.store(false, std::memory_order_relaxed);
  configured_.store(false, std::memory_order_relaxed);
}

}  // namespace gran::perf
