// Deterministic discrete-event engine with coroutine processes.
//
// The engine owns a calendar queue of timed events (ties broken by
// insertion sequence, so identical inputs give byte-identical runs) and a
// registry of `Process` objects. A Process hosts one coroutine call chain —
// a simulated MPI rank. Killing a process destroys its coroutine frames
// mid-suspend; every scheduled resume carries a (pid, incarnation) token and
// is dropped if the incarnation changed, which makes crash injection safe at
// any await point.
//
// The queue holds plain 48-byte records, not closures. Coroutine resumes —
// the bulk of all scheduled work — travel in a dedicated lane as
// {token, handle} inline in the record; only generic at()/after() callbacks
// carry a std::function, parked in a recycled slab and referenced by slot,
// so steady-state scheduling does no per-event heap allocation.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/slab.hpp"

namespace mpiv::sim {

class Engine;
class Process;

/// Identifies one incarnation of one process; stale tokens are inert.
struct ProcToken {
  std::uint32_t pid = UINT32_MAX;
  std::uint32_t incarnation = 0;
  bool operator==(const ProcToken&) const = default;
};

/// Root coroutine wrapper: drives a Task<void> and flags completion on the
/// owning Process. Suspends at final_suspend so the frame is destroyed only
/// by its owner (Process::reap/kill), never mid-execution.
struct RootCoro {
  struct promise_type {
    Process* proc = nullptr;
    RootCoro get_return_object() noexcept {
      return RootCoro{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_always final_suspend() const noexcept;
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { std::abort(); }
  };
  std::coroutine_handle<promise_type> handle;
};

class Process {
 public:
  Process(Engine& eng, std::uint32_t pid, std::string name)
      : eng_(eng), pid_(pid), name_(std::move(name)) {}
  ~Process() { destroy_frame(); }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  std::uint32_t pid() const { return pid_; }
  std::uint32_t incarnation() const { return incarnation_; }
  const std::string& name() const { return name_; }
  ProcToken token() const { return {pid_, incarnation_}; }

  bool running() const { return root_ && !finished_; }
  bool finished() const { return finished_; }

  /// Launches `main` as this process's coroutine; the first resume is
  /// scheduled at the current simulated time (or `at` if given).
  void start(Task<void> main);
  void start_at(Time at, Task<void> main);

  /// Crash: destroys the coroutine frames and invalidates the incarnation.
  /// Safe to call while the process is suspended at any await point; must
  /// not be called from within the process's own execution.
  void kill();

  Engine& engine() const { return eng_; }

  /// Internal: called by the root driver coroutine when `main` returns.
  void on_main_done() { finished_ = true; }

 private:
  friend struct RootCoro::promise_type;
  friend class Engine;
  void destroy_frame();

  Engine& eng_;
  std::uint32_t pid_;
  std::string name_;
  std::uint32_t incarnation_ = 0;
  bool finished_ = false;
  std::coroutine_handle<RootCoro::promise_type> root_;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedules a callback at absolute simulated time `t` (>= now).
  void at(Time t, std::function<void()> fn) {
    MPIV_CHECK(t >= now_, "scheduling into the past: %lld < %lld",
               static_cast<long long>(t), static_cast<long long>(now_));
    Ev ev;
    ev.t = t;
    ev.seq = seq_++;
    ev.slot = callbacks_.put(std::move(fn));
    queue_.push(ev);
  }
  void after(Time dt, std::function<void()> fn) { at(now_ + dt, std::move(fn)); }

  /// Schedules the resume of a suspended process coroutine; dropped if the
  /// process was killed/restarted in the meantime. Resume records travel
  /// inline in the event queue — no callback, no allocation.
  void schedule_resume(ProcToken tok, std::coroutine_handle<> h, Time t) {
    MPIV_CHECK(t >= now_, "scheduling into the past: %lld < %lld",
               static_cast<long long>(t), static_cast<long long>(now_));
    Ev ev;
    ev.t = t;
    ev.seq = seq_++;
    ev.resume = h;
    ev.tok = tok;
    queue_.push(ev);
  }

  bool token_alive(ProcToken tok) const {
    return tok.pid < procs_.size() &&
           procs_[tok.pid]->incarnation() == tok.incarnation &&
           procs_[tok.pid]->running();
  }

  /// Runs events until the queue is empty or `stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();
  /// Runs events with timestamp <= t (then sets now = t if it advanced less).
  std::uint64_t run_until(Time t);
  void stop() { stopped_ = true; }

  Process& create_process(std::string name) {
    procs_.push_back(std::make_unique<Process>(
        *this, static_cast<std::uint32_t>(procs_.size()), std::move(name)));
    return *procs_.back();
  }
  Process& process(std::uint32_t pid) {
    MPIV_CHECK(pid < procs_.size(), "bad pid %u", pid);
    return *procs_[pid];
  }

  /// Non-null while the engine is executing (a resume of) a process
  /// coroutine; awaitables use it to learn who is suspending.
  Process* current_process() const { return current_; }

  /// Awaitable: suspend the current process for `dt` simulated time.
  auto sleep(Time dt) {
    struct SleepAwaiter {
      Engine& eng;
      Time dt;
      bool await_ready() const noexcept { return dt <= 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        Process* p = eng.current_process();
        MPIV_CHECK(p != nullptr, "sleep outside of a process coroutine");
        eng.schedule_resume(p->token(), h, eng.now() + dt);
      }
      void await_resume() const noexcept {}
    };
    return SleepAwaiter{*this, dt};
  }

  /// Total events executed so far (proxy for simulation work).
  std::uint64_t events_executed() const { return executed_; }

  /// Pending events in the queue (observability probe).
  std::size_t queue_size() const { return queue_.size(); }

  /// Arms the observation side-channel: `fn(t)` fires at t = start,
  /// start + interval, ... *between* events in run_until, never through the
  /// event queue — it does not consume a seq number, does not count toward
  /// events_executed(), and must not schedule. An armed sampler therefore
  /// leaves the event schedule byte-identical to an unarmed one. Pass a null
  /// fn to disarm.
  void set_sampler(Time interval, Time start, std::function<void(Time)> fn) {
    MPIV_CHECK(!fn || interval > 0, "sampler interval must be positive");
    sampler_interval_ = interval;
    sampler_next_ = start;
    sampler_ = std::move(fn);
  }

 private:
  friend class Process;
  void resume_in_process(Process* p, std::coroutine_handle<> h) {
    Process* prev = current_;
    current_ = p;
    h.resume();
    current_ = prev;
  }

  /// One scheduled event: either a process resume (resume != nullptr, token
  /// checked at fire time) or a parked callback (slot into callbacks_).
  struct Ev {
    Time t = 0;
    std::uint64_t seq = 0;
    std::coroutine_handle<> resume{};
    ProcToken tok{};
    std::uint32_t slot = UINT32_MAX;
  };

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  Process* current_ = nullptr;
  CalendarQueue<Ev> queue_;
  util::Slab<std::function<void()>> callbacks_;
  std::vector<std::unique_ptr<Process>> procs_;
  // Observation side-channel (set_sampler): drained in run_until before
  // each popped event, outside the queue/seq/executed machinery.
  Time sampler_next_ = 0;
  Time sampler_interval_ = 0;
  std::function<void(Time)> sampler_;
};

// --- Intrusive wait queue -------------------------------------------------
//
// The parking primitive for blocking operations. An awaiter embeds a Waiter
// node that lives in the coroutine frame; wake_* unlinks the node and
// schedules a tokened resume. If the frame is destroyed first (process
// killed), the Waiter destructor unlinks itself, and any already-scheduled
// resume is dropped by the token check.

class WaitQueue;

class Waiter {
 public:
  Waiter() = default;
  ~Waiter() { unlink(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  bool linked() const { return queue_ != nullptr; }
  void unlink();

 private:
  friend class WaitQueue;
  WaitQueue* queue_ = nullptr;
  Waiter* prev_ = nullptr;
  Waiter* next_ = nullptr;
  std::coroutine_handle<> handle_;
  ProcToken token_;
};

class WaitQueue {
 public:
  explicit WaitQueue(Engine& eng) : eng_(eng) {}
  ~WaitQueue() {
    // Outstanding waiters' frames outlive the queue only on teardown bugs.
    while (head_) head_->unlink();
  }
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return count_; }

  /// Awaitable: parks the current process until woken.
  auto wait() {
    struct WaitAwaiter {
      WaitQueue& q;
      Waiter node;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        Process* p = q.eng_.current_process();
        MPIV_CHECK(p != nullptr, "wait outside of a process coroutine");
        node.handle_ = h;
        node.token_ = p->token();
        q.push_back(&node);
      }
      void await_resume() const noexcept {}
    };
    return WaitAwaiter{*this, {}};
  }

  /// Wakes the longest-waiting process at simulated time `t` (>= now).
  /// Returns false if no one was waiting.
  bool wake_one(Time t) {
    Waiter* w = head_;
    if (!w) return false;
    const std::coroutine_handle<> h = w->handle_;
    const ProcToken tok = w->token_;
    w->unlink();
    eng_.schedule_resume(tok, h, t);
    return true;
  }
  bool wake_one() { return wake_one(eng_.now()); }

  std::size_t wake_all(Time t) {
    std::size_t n = 0;
    while (wake_one(t)) ++n;
    return n;
  }
  std::size_t wake_all() { return wake_all(eng_.now()); }

 private:
  friend class Waiter;
  void push_back(Waiter* w) {
    MPIV_DCHECK(!w->linked(), "waiter already linked");
    w->queue_ = this;
    w->next_ = nullptr;
    w->prev_ = tail_;
    if (tail_) {
      tail_->next_ = w;
    } else {
      head_ = w;
    }
    tail_ = w;
    ++count_;
  }

  Engine& eng_;
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::size_t count_ = 0;  // size() is called from stats paths inside runs
};

inline void Waiter::unlink() {
  if (!queue_) return;
  --queue_->count_;
  if (prev_) {
    prev_->next_ = next_;
  } else {
    queue_->head_ = next_;
  }
  if (next_) {
    next_->prev_ = prev_;
  } else {
    queue_->tail_ = prev_;
  }
  prev_ = next_ = nullptr;
  queue_ = nullptr;
}

}  // namespace mpiv::sim
