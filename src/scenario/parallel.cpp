// The sweep dispatch loop: every point of run() runs here in process, in
// sweep order, or in a forked worker, and the set keeps one summary each.
//
// Workers. The parent keeps exactly one point outstanding per worker (a
// point is orders of magnitude slower than the dispatch round-trip, so
// deeper prefetch buys nothing and would smear a worker crash over more
// than one point). Requests are 4-byte little-endian point indices; the
// sentinel 0xffffffff tells a worker to exit. A worker answers each index
// with its point's summary, less the fields the parent's copy of the point
// holds, in one length-prefixed result frame:
//
//   u32 frame_len | u32 index | u8 outcome | u8 completed |
//   i64 completion_time | u32 stanza_len | stanza bytes
//
// Crash containment. EOF on a worker's result pipe before its outstanding
// point answered means the worker died running it (assert failure, OOM
// kill, sanitizer abort): the point becomes a `failed` result carrying the
// wait status, a replacement worker is forked, and the grid continues.
// Every crash consumes its point, so a pathological grid degrades into at
// most one fork per point, never a livelock.
#include "scenario/parallel.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string>

namespace mpiv::scenario::detail {

namespace {

constexpr std::uint32_t kSentinel = 0xffffffffu;

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k <= 0) {
      if (k < 0 && errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_i64(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(u >> (8 * i)));
}

std::uint32_t get_u32(const std::string& buf, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[at + i]))
         << (8 * i);
  }
  return v;
}

std::int64_t get_i64(const std::string& buf, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[at + i]))
         << (8 * i);
  }
  return static_cast<std::int64_t>(v);
}

/// What the set keeps of a finished point: its identity, how it ended and
/// its rendered stanza. Summarizing a summary returns it unchanged.
RunResult summarize(RunResult r) {
  RunResult s;
  s.stanza = run_json_fragment(r);
  s.kept_outcome = r.outcome();
  s.label = std::move(r.label);
  s.axes = std::move(r.axes);
  s.skipped = r.skipped;
  s.skip_reason = std::move(r.skip_reason);
  s.failed = r.failed;
  s.fail_reason = std::move(r.fail_reason);
  s.completed = r.completed;
  s.report.completion_time = r.report.completion_time;
  return s;
}

/// The result frame answering point `idx` (layout in the file header).
std::string encode_frame(std::uint32_t idx, const RunResult& summary) {
  const auto stanza_len = static_cast<std::uint32_t>(summary.stanza.size());
  std::string frame;
  put_u32(frame, 18 + stanza_len);
  put_u32(frame, idx);
  frame.push_back(static_cast<char>(summary.outcome()));
  frame.push_back(summary.completed ? 1 : 0);
  put_i64(frame, summary.report.completion_time);
  put_u32(frame, stanza_len);
  return frame + summary.stanza;
}

/// The summary a validated frame at the front of `buf` carries for `p`.
RunResult decode_frame(const RunPoint& p, const std::string& buf) {
  RunResult s;
  s.label = p.label;
  s.axes = p.axes;
  s.kept_outcome = static_cast<Outcome>(buf[8]);
  s.completed = buf[9] != 0;
  s.report.completion_time = get_i64(buf, 10);
  s.stanza = buf.substr(22, get_u32(buf, 18));
  return s;
}

[[noreturn]] void worker_main(int req_rd, int res_wr,
                              const std::vector<RunPoint>& points,
                              const RunOptions& options) {
  for (;;) {
    std::uint32_t idx = 0;
    if (!read_exact(req_rd, &idx, 4) || idx == kSentinel) ::_exit(0);
    // Each forked worker would count down its own copy of the cache's
    // users and keep the twins its share of a key left behind, so a point
    // sent here runs its own twin.
    RunPoint p = points[idx];
    p.reference_cache.reset();
    if (options.before_point) options.before_point(p);
    const std::string frame = encode_frame(idx, summarize(run_point(p)));
    if (!write_exact(res_wr, frame.data(), frame.size())) ::_exit(1);
  }
}

struct Worker {
  pid_t pid = -1;
  int req_wr = -1;
  int res_rd = -1;
  std::string buf;            // partial result frames
  std::int64_t outstanding = -1;  // point index in flight, -1 = idle
  bool draining = false;      // sentinel sent, waiting for clean EOF
};

/// Forks one worker. `live` is every other worker whose parent-side fds
/// the child must close — otherwise a held write end would mask a sibling
/// crash from the parent's EOF detection.
bool spawn_worker(const std::vector<RunPoint>& points,
                  const RunOptions& options, const std::vector<Worker>& live,
                  Worker& out) {
  int req[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(req) != 0) return false;
  if (::pipe(res) != 0) {
    ::close(req[0]);
    ::close(req[1]);
    return false;
  }
  std::fflush(nullptr);  // don't let the child flush inherited stdio buffers
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(req[0]);
    ::close(req[1]);
    ::close(res[0]);
    ::close(res[1]);
    return false;
  }
  if (pid == 0) {
    ::close(req[1]);
    ::close(res[0]);
    for (const Worker& w : live) {
      if (w.req_wr >= 0) ::close(w.req_wr);
      if (w.res_rd >= 0) ::close(w.res_rd);
    }
    worker_main(req[0], res[1], points, options);
  }
  ::close(req[0]);
  ::close(res[1]);
  out = Worker{};
  out.pid = pid;
  out.req_wr = req[1];
  out.res_rd = res[0];
  return true;
}

/// The point a worker lost: it sent a malformed frame, or it ended with
/// `wstatus` before delivering a result.
RunResult make_failed(const RunPoint& p, bool malformed, int wstatus) {
  char why[80] = "worker sent a malformed result frame";
  if (!malformed && WIFSIGNALED(wstatus)) {
    std::snprintf(why, sizeof why,
                  "worker killed by signal %d before delivering a result",
                  WTERMSIG(wstatus));
  } else if (!malformed) {
    std::snprintf(why, sizeof why,
                  "worker exited with status %d before delivering a result",
                  WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
  }
  RunResult r;
  r.label = p.label;
  r.axes = p.axes;
  r.failed = true;
  r.fail_reason = why;
  return r;
}

void retire(Worker& w) {
  if (w.req_wr >= 0) ::close(w.req_wr);
  if (w.res_rd >= 0) ::close(w.res_rd);
  w.req_wr = w.res_rd = -1;
}

}  // namespace

std::vector<RunResult> run_points(const std::vector<RunPoint>& points,
                                  const RunOptions& options) {
  std::vector<RunResult> results(points.size());
  std::size_t done = 0;
  const auto record = [&](std::size_t idx, RunResult r) {
    if (options.on_result) options.on_result(points[idx], r);
    results[idx] = summarize(std::move(r));
    ++done;
  };
  // Skip classification is pure metadata — no cluster runs, so there is
  // nothing to gain (and a fork to lose) shipping a skipped point to a
  // worker. A one-point grid is not worth a fork either.
  const bool fan_out = options.jobs > 1 && points.size() > 1;
  std::vector<std::size_t> work;  // indices the workers run
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (fan_out && !points[i].skipped) {
      work.push_back(i);
    } else {
      record(i, run_point(points[i]));
    }
  }
  if (work.empty()) return results;

  // The parent writes request pipes that a crashed worker no longer reads;
  // that must surface as EPIPE handled below, not a fatal SIGPIPE.
  using SigHandler = void (*)(int);
  const SigHandler old_sigpipe = ::signal(SIGPIPE, SIG_IGN);

  std::vector<Worker> workers;
  const std::size_t target = std::min<std::size_t>(
      static_cast<std::size_t>(options.jobs), work.size());
  for (std::size_t i = 0; i < target; ++i) {
    Worker w;
    if (spawn_worker(points, options, workers, w)) workers.push_back(w);
  }

  std::size_t next = 0;  // next unassigned entry in `work`
  std::size_t respawns = 0;
  const std::size_t respawn_cap = work.size() + target + 8;

  const auto feed = [&](Worker& w) {
    if (next < work.size()) {
      const auto idx = static_cast<std::uint32_t>(work[next]);
      w.outstanding = static_cast<std::int64_t>(work[next]);
      ++next;
      // A write failure means the worker died already; the EOF on its
      // result pipe marks the outstanding point failed.
      write_exact(w.req_wr, &idx, 4);
    } else {
      w.outstanding = -1;
      w.draining = true;
      const std::uint32_t s = kSentinel;
      write_exact(w.req_wr, &s, 4);
    }
  };
  for (Worker& w : workers) feed(w);

  while (done < points.size()) {
    if (workers.empty()) {
      // Could not fork (or every replacement died): finish in process so
      // the grid still completes and reports every point.
      while (next < work.size()) {
        const std::size_t idx = work[next++];
        record(idx, run_point(points[idx]));
      }
      break;
    }

    std::vector<pollfd> fds(workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) {
      fds[i] = pollfd{workers[i].res_rd, POLLIN, 0};
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable
    }

    for (std::size_t i = workers.size(); i-- > 0;) {
      if (fds[i].revents == 0) continue;
      Worker& w = workers[i];
      char chunk[65536];
      const ssize_t k = ::read(w.res_rd, chunk, sizeof chunk);
      bool malformed = false;
      if (k > 0) {
        w.buf.append(chunk, static_cast<std::size_t>(k));
        while (w.buf.size() >= 4) {
          // Validate the frame before trusting any of its fields: the
          // payload is 18 fixed bytes plus the stanza, and it must answer
          // the one point this worker has outstanding with a known
          // outcome. Anything else is a protocol violation from a
          // misbehaving worker — contain it like a crash instead of
          // indexing results[] on the worker's say-so.
          const std::uint32_t len = get_u32(w.buf, 0);
          if (len < 18 || len > (std::uint32_t{1} << 30)) {
            malformed = true;
            break;
          }
          if (w.buf.size() < 4 + static_cast<std::size_t>(len)) break;
          const std::size_t idx = get_u32(w.buf, 4);
          const std::uint32_t stanza_len = get_u32(w.buf, 18);
          if (static_cast<std::uint64_t>(len) !=
                  18 + static_cast<std::uint64_t>(stanza_len) ||
              idx >= points.size() ||
              static_cast<std::int64_t>(idx) != w.outstanding ||
              static_cast<unsigned char>(w.buf[8]) >
                  static_cast<unsigned char>(Outcome::kRecoveredExact)) {
            malformed = true;
            break;
          }
          RunResult r = decode_frame(points[idx], w.buf);
          w.buf.erase(0, 4 + len);
          w.outstanding = -1;
          record(idx, std::move(r));
          feed(w);
        }
        if (!malformed) continue;
      }
      if (!malformed && k < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      // EOF (clean exit after the sentinel, or a crash mid-point) — or a
      // protocol violation, in which case the worker is still alive and
      // must be killed before waitpid can reap it.
      if (malformed) ::kill(w.pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(w.pid, &wstatus, 0);
      retire(w);
      const std::int64_t lost = w.outstanding;
      const bool crashed = !w.draining;
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
      if (lost >= 0) {
        const auto idx = static_cast<std::size_t>(lost);
        record(idx, make_failed(points[idx], malformed, wstatus));
      }
      if (crashed && done < points.size() && respawns < respawn_cap) {
        ++respawns;
        Worker fresh;
        if (spawn_worker(points, options, workers, fresh)) {
          feed(fresh);
          workers.push_back(fresh);
        }
      }
    }
  }

  for (Worker& w : workers) {
    if (!w.draining) {
      const std::uint32_t s = kSentinel;
      write_exact(w.req_wr, &s, 4);
    }
    retire(w);
    int wstatus = 0;
    ::waitpid(w.pid, &wstatus, 0);
  }
  ::signal(SIGPIPE, old_sigpipe);
  return results;
}

}  // namespace mpiv::scenario::detail
