#include "sdrmpi/sweep/remote.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sdrmpi/core/launcher.hpp"
#include "sdrmpi/sweep/auth.hpp"
#include "sdrmpi/sweep/config_key.hpp"
#include "sdrmpi/sweep/frame_io.hpp"
#include "sdrmpi/sweep/result_codec.hpp"
#include "sdrmpi/sweep/transport.hpp"
#include "sdrmpi/util/hash.hpp"
#include "sdrmpi/util/options.hpp"
#include "sdrmpi/workloads/registry.hpp"

namespace sdrmpi::sweep {
namespace {

using Clock = std::chrono::steady_clock;

/// Reply ids carry the run generation so a late frame from a finished
/// run() can never alias a point of the current one (workers outlive
/// individual runs: a cold+warm bench pair reuses the same fleet).
constexpr std::uint64_t make_reply_id(std::uint32_t gen, std::uint32_t point) {
  return (std::uint64_t{gen} << 32) | point;
}

/// Control frames (hello, heartbeats, work requests, auth) are small by
/// construction; a length beyond this is a confused or hostile peer, and
/// allocating it would hand that peer a bad_alloc lever against a reader
/// thread. Result frames are exempt — encoded RunResults are bounded by
/// the frame_io 4 GiB limit and produced by our own workers.
constexpr std::uint32_t kMaxControlPayload = 4096;

void set_send_timeout(int fd, int ms) {
  // A hung peer must stall a frame write for at most the failure-detection
  // deadline, never forever: a blocked dispatch would freeze the whole
  // scheduler loop. Timed-out writes surface as failures and the peer is
  // declared lost.
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

// ---------------------------------------------------------- coordinator

struct RemoteCoordinator::Impl {
  RemoteTuning tuning;
  RemoteStats* stats;  // owned by the RemoteCoordinator facade
  TcpListener listener;
  std::thread acceptor;

  mutable std::mutex mu;
  std::condition_variable cv;
  bool shutting_down = false;
  bool ever_registered = false;
  std::size_t live_workers = 0;
  std::uint32_t generation = 0;
  Clock::time_point fleet_empty_since{};  // set when live_workers hits 0

  /// One undispatched point, queued in input order.
  struct PendingItem {
    std::uint32_t point = 0;  // index into the run's point table
    int attempt = 1;          // dispatch attempts incl. the next one
    Clock::time_point not_before;
    int prev_worker = -1;  // last holder; re-dispatch prefers someone else
  };
  /// A dispatched, unanswered point: the lease its holder keeps.
  struct Lease {
    PendingItem item;
    Clock::time_point deadline;
  };

  struct WorkerConn {
    int id = -1;
    int fd = -1;
    std::thread reader;
    Clock::time_point last_seen;
    bool alive = true;
    bool hungry = false;  // sent a WorkRequest not yet served
    /// At most two: the point being simulated and the one-deep prefetch
    /// (a worker asks for its next point as soon as a dispatch arrives).
    std::vector<Lease> held;
    std::mutex write_mu;  // dispatch / shutdown frames interleave safely
  };
  std::vector<std::unique_ptr<WorkerConn>> workers;  // every worker ever

  struct PointState {
    bool done = false;
    bool have_result_hash = false;
    std::uint64_t result_hash = 0;  // fnv1a of the encoded result bytes
  };
  struct RunState {
    std::vector<RemotePoint> pts;
    std::vector<PointState> state;
    std::deque<PendingItem> queue;
    std::size_t undone = 0;
    std::string fatal;
    /// Last time the scheduler moved: a point served, a result delivered,
    /// or a lease recycled. Drives the stuck-fleet aging below — a pull
    /// scheduler never hands work to a fleet that stops asking, so budget
    /// exhaustion must be measured in wall time, not bounced dispatches.
    Clock::time_point last_progress;
    const std::function<void(std::size_t, core::RunResult&&)>* on_result;
    const std::function<void(PointError&&)>* on_error;
  };
  RunState* run = nullptr;

  explicit Impl(const Endpoint& listen, RemoteTuning t, RemoteStats* s)
      : tuning(std::move(t)), stats(s), listener(listen.host, listen.port) {
    acceptor = std::thread([this] { accept_loop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      shutting_down = true;
    }
    listener.close();
    // Acceptor first: once it is joined, no handshake can grow `workers`
    // behind our back.
    if (acceptor.joinable()) acceptor.join();
    for (auto& w : workers) {
      std::lock_guard<std::mutex> wl(w->write_mu);
      if (w->fd >= 0) {
        frame::write_frame(w->fd, kFrameShutdown, 0, nullptr, 0);
        ::shutdown(w->fd, SHUT_RDWR);
      }
    }
    for (auto& w : workers) {
      if (w->reader.joinable()) w->reader.join();
    }
  }

  [[nodiscard]] Clock::duration backoff(int attempt) const {
    // attempt 1 is the first dispatch (no delay); re-dispatch n waits
    // min(base << (n-1), cap).
    if (attempt <= 1) return Clock::duration::zero();
    const int shift = std::min(attempt - 2, 20);
    const long long ms = std::min<long long>(
        static_cast<long long>(tuning.backoff_base_ms) << shift,
        tuning.backoff_cap_ms);
    return std::chrono::milliseconds(ms);
  }

  // ---- accept + handshake (acceptor thread) ------------------------------

  void accept_loop() {
    for (;;) {
      const int fd = listener.accept_fd(250);
      {
        std::lock_guard<std::mutex> lk(mu);
        if (shutting_down) {
          if (fd >= 0) ::close(fd);
          return;
        }
      }
      if (fd < 0) continue;
      try {
        handshake(fd);
      } catch (...) {
        // A hostile or garbled peer must never take the acceptor down:
        // drop the connection and keep listening.
        ::close(fd);
      }
    }
  }

  void handshake(int fd) {
    auto reject = [fd](const std::string& why) {
      frame::write_frame(fd, kFrameHelloReject, 0, why.data(), why.size());
      ::close(fd);
    };
    if (!wait_readable(fd, tuning.heartbeat_deadline_ms)) {
      ::close(fd);  // connected but never said hello
      return;
    }
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h) || h.kind != kFrameHello ||
        h.len > kMaxControlPayload) {
      ::close(fd);
      return;
    }
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len)) {
      ::close(fd);
      return;
    }
    std::uint32_t proto = 0, codec = 0;
    std::uint8_t key_version = 0;
    try {
      ByteReader r(payload);
      proto = r.u32();
      key_version = r.u8();
      codec = r.u32();
      (void)r.str();  // worker name: must parse, not used by the scheduler
    } catch (const CodecError&) {
      reject("malformed hello frame");
      return;
    }
    if (proto != kRemoteProtocolVersion) {
      reject("protocol version " + std::to_string(proto) +
             " != coordinator's " + std::to_string(kRemoteProtocolVersion));
      return;
    }
    if (key_version != kConfigKeyVersion) {
      reject("config-key version " + std::to_string(key_version) +
             " != coordinator's " + std::to_string(kConfigKeyVersion));
      return;
    }
    if (codec != kResultCodecVersion) {
      reject("result-codec version " + std::to_string(codec) +
             " != coordinator's " + std::to_string(kResultCodecVersion));
      return;
    }
    if (!tuning.secret.empty() && !authenticate(fd, payload, reject)) {
      return;  // rejected (reasoned frame already sent) or vanished
    }
    ByteWriter ack;
    ack.u32(static_cast<std::uint32_t>(tuning.heartbeat_interval_ms));
    if (!frame::write_frame(fd, kFrameHelloAck, 0, ack.bytes().data(),
                            ack.bytes().size())) {
      ::close(fd);
      return;
    }
    set_send_timeout(fd, std::max(tuning.heartbeat_deadline_ms, 1000));

    auto conn = std::make_unique<WorkerConn>();
    WorkerConn* w = conn.get();
    w->fd = fd;
    w->last_seen = Clock::now();
    {
      std::lock_guard<std::mutex> lk(mu);
      w->id = static_cast<int>(workers.size());
      workers.push_back(std::move(conn));
      ++live_workers;
      ever_registered = true;
      ++stats->workers_registered;
    }
    w->reader = std::thread([this, w] { reader_loop(w); });
    cv.notify_all();
  }

  /// Acceptor thread, before any registration state exists. Challenges
  /// the peer with a fresh nonce and verifies the HMAC over the exact
  /// Hello payload it announced itself with — config bytes only ever
  /// flow to a peer that proved it holds the shared secret.
  bool authenticate(int fd, const std::vector<std::byte>& hello_payload,
                    const std::function<void(const std::string&)>& reject) {
    const auth::Nonce nonce = auth::make_nonce();
    if (!frame::write_frame(fd, kFrameAuthChallenge, 0, nonce.data(),
                            nonce.size())) {
      ::close(fd);
      return false;
    }
    if (!wait_readable(fd, tuning.heartbeat_deadline_ms)) {
      reject("authentication failed: no response to the HMAC challenge");
      return false;
    }
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h) || h.kind != kFrameAuthResponse ||
        h.len != auth::kDigestSize) {
      reject("authentication failed: expected a 32-byte AuthResponse");
      return false;
    }
    auth::Digest mac;
    if (!frame::read_all(fd, mac.data(), mac.size())) {
      ::close(fd);
      return false;
    }
    const auth::Digest want =
        auth::registration_mac(tuning.secret, hello_payload, nonce);
    if (!auth::constant_time_equal(mac.data(), want.data(), want.size())) {
      reject("authentication failed: bad shared-secret MAC");
      return false;
    }
    return true;
  }

  // ---- per-worker reader thread ------------------------------------------

  void reader_loop(WorkerConn* w) {
    // The whole loop body is fenced: a hostile frame (absurd length, torn
    // payload, undecodable bytes) must surface as "this worker is dead",
    // never as an exception escaping a reader thread (std::terminate).
    try {
      reader_loop_body(w);
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      declare_dead(w, /*by_deadline=*/false);
    }
    cv.notify_all();
    // Close under write_mu so a dispatch write can never land on a reused
    // fd number: writers check fd >= 0 under the same lock.
    std::lock_guard<std::mutex> wl(w->write_mu);
    ::close(w->fd);
    w->fd = -1;
  }

  void reader_loop_body(WorkerConn* w) {
    for (;;) {
      frame::FrameHeader h;
      if (!frame::read_frame_header(w->fd, h)) return;
      const bool delivery = h.kind == frame::kFrameResult ||
                            h.kind == frame::kFrameInvalidConfig ||
                            h.kind == frame::kFrameRuntimeError;
      if (!delivery && h.len > kMaxControlPayload) return;  // confused peer
      std::vector<std::byte> payload(h.len);
      if (h.len > 0 && !frame::read_all(w->fd, payload.data(), h.len)) return;
      std::lock_guard<std::mutex> lk(mu);
      w->last_seen = Clock::now();
      if (delivery) {
        handle_delivery(w, h, payload);
      } else if (h.kind == kFrameWorkRequest) {
        w->hungry = true;
      }
      // Heartbeats (and unknown kinds, for forward compatibility) only
      // refresh last_seen.
      cv.notify_all();
    }
  }

  /// mu held. Exactly-once delivery with duplicate suppression: the first
  /// result for a point wins; a late twin is counted and digest-compared
  /// (determinism says they must match bit-for-bit).
  void handle_delivery(WorkerConn* w, const frame::FrameHeader& h,
                       const std::vector<std::byte>& payload) {
    const auto gen = static_cast<std::uint32_t>(h.id >> 32);
    const auto p = static_cast<std::uint32_t>(h.id & 0xffffffffu);
    if (run == nullptr || gen != generation) {
      ++stats->duplicate_results;  // straggler from a completed run
      return;
    }
    if (p >= run->state.size()) return;  // malformed id: drop
    // The answer ends the sender's lease on p (a lease-expired holder has
    // none left; its answer may still win below).
    std::erase_if(w->held, [p](const Lease& l) { return l.item.point == p; });
    run->last_progress = Clock::now();
    PointState& ps = run->state[p];
    if (ps.done) {
      ++stats->duplicate_results;
      if (h.kind == frame::kFrameResult && ps.have_result_hash &&
          util::fnv1a(payload) != ps.result_hash) {
        run->fatal =
            "determinism violation: point " +
            std::to_string(run->pts[p].id) +
            " produced two different results from different workers";
      }
      return;
    }
    ps.done = true;
    --run->undone;
    const std::size_t external_id = run->pts[p].id;
    if (h.kind == frame::kFrameResult) {
      core::RunResult result;
      try {
        result = decode_result(payload);
      } catch (const CodecError& e) {
        (*run->on_error)(PointError{
            external_id, false,
            std::string("remote worker sent an undecodable result: ") +
                e.what()});
        return;
      }
      ps.have_result_hash = true;
      ps.result_hash = util::fnv1a(payload);
      (*run->on_result)(external_id, std::move(result));
    } else {
      (*run->on_error)(PointError{
          external_id, h.kind == frame::kFrameInvalidConfig,
          std::string(reinterpret_cast<const char*>(payload.data()),
                      payload.size())});
    }
  }

  /// mu held, run active. Requeues w's undelivered leases — all of them,
  /// or only those past their deadline — for re-dispatch (next attempt,
  /// backoff, avoid this holder). Each requeued lease is one re-dispatch
  /// event.
  void recycle_leases(WorkerConn* w, const Clock::time_point now,
                      bool expired_only) {
    std::erase_if(w->held, [&](const Lease& l) {
      if (expired_only && now < l.deadline) return false;
      if (run->state[l.item.point].done) return true;
      PendingItem it = l.item;
      ++it.attempt;
      it.not_before = now + backoff(it.attempt);
      it.prev_worker = w->id;
      run->queue.push_back(it);
      ++stats->chunks_redispatched;
      run->last_progress = now;  // the scheduler moved; aging restarts
      return true;
    });
  }

  /// mu held. Declares a worker dead (reader EOF/error or heartbeat
  /// deadline), wakes its reader if still blocked, and requeues its
  /// undelivered leases with backoff.
  void declare_dead(WorkerConn* w, bool by_deadline) {
    if (!w->alive) return;
    w->alive = false;
    --live_workers;
    if (live_workers == 0) fleet_empty_since = Clock::now();
    if (!shutting_down) {
      ++stats->workers_lost;
      if (by_deadline) ++stats->heartbeats_missed;
    }
    if (w->fd >= 0) ::shutdown(w->fd, SHUT_RDWR);
    if (run != nullptr) recycle_leases(w, Clock::now(), /*expired_only=*/false);
  }

  // ---- scheduler (run() caller's thread) ---------------------------------

  /// Returns the ids of the points the fleet could not place (all undone
  /// points once the fleet is gone), in input order.
  std::vector<std::size_t> drive(RunState& rs) {
    std::unique_lock<std::mutex> lk(mu);
    ++generation;
    run = &rs;
    rs.last_progress = Clock::now();
    const Clock::time_point reg_deadline =
        Clock::now() +
        std::chrono::milliseconds(tuning.registration_wait_ms);
    std::vector<std::size_t> leftovers;

    while (rs.undone > 0 && rs.fatal.empty()) {
      const Clock::time_point now = Clock::now();

      // 1. Heartbeat failure detection: a worker silent past the deadline
      //    is dead even while the kernel holds its socket open.
      for (auto& w : workers) {
        if (w->alive &&
            now - w->last_seen >
                std::chrono::milliseconds(tuning.heartbeat_deadline_ms)) {
          declare_dead(w.get(), /*by_deadline=*/true);
        }
      }

      // 2. Lease expiry: a stalled (but alive) worker loses its
      //    undelivered points to a survivor; its late results are
      //    suppressed as duplicates when they eventually arrive.
      if (tuning.lease_ms > 0) {
        for (auto& w : workers) recycle_leases(w.get(), now, true);
      }

      // 3. Stuck-fleet aging. A pull scheduler cannot burn the budget by
      //    bouncing dispatches off busy workers (it never dispatches to a
      //    fleet that stops asking), so "this work is going nowhere" is
      //    measured in wall time: a lease interval with zero scheduler
      //    progress ages every queued point one attempt. Healthy fleets
      //    never age — each serve and each per-point delivery resets the
      //    progress clock.
      if (tuning.lease_ms > 0 && live_workers > 0 && !rs.queue.empty() &&
          now - rs.last_progress >
              std::chrono::milliseconds(tuning.lease_ms)) {
        bool any = false;
        for (PendingItem& it : rs.queue) {
          if (rs.state[it.point].done) continue;
          ++it.attempt;
          it.not_before = now + backoff(it.attempt);
          any = true;
        }
        if (any) ++stats->chunks_redispatched;
        rs.last_progress = now;
      }

      // 4. Budget check: a point whose next dispatch would exceed the
      //    re-dispatch budget surfaces as a hard error instead of
      //    spinning forever.
      drain_over_budget(rs);
      if (rs.undone == 0 || !rs.fatal.empty()) break;

      // 5. Serve hungry workers one point each.
      const bool served = serve_hungry(lk, rs);
      if (rs.undone == 0 || !rs.fatal.empty()) break;
      if (served) continue;  // re-examine state after the writes

      // 6. Hand the rest back when the fleet is gone: the last worker
      //    died mid-sweep (and any supervisor grace window has lapsed),
      //    or nobody registered within the window. Every lease died with
      //    its worker, so the undone points are exactly the leftovers.
      if (live_workers == 0) {
        const bool window_over =
            ever_registered
                ? Clock::now() - fleet_empty_since >=
                      std::chrono::milliseconds(tuning.fleet_death_grace_ms)
                : Clock::now() >= reg_deadline;
        if (window_over) {
          for (std::uint32_t p = 0; p < rs.state.size(); ++p) {
            if (!rs.state[p].done) leftovers.push_back(rs.pts[p].id);
          }
          break;
        }
      }

      // 7. Sleep until the next deadline could fire (or a frame arrives).
      cv.wait_for(lk, next_wakeup(rs));
    }
    // Leases end with the run: a late answer is a straggler from here on.
    for (auto& w : workers) w->held.clear();
    run = nullptr;
    if (!rs.fatal.empty()) throw WorkerError(rs.fatal);
    return leftovers;
  }

  /// mu held. Errors out every queued point past the re-dispatch budget.
  void drain_over_budget(RunState& rs) {
    for (std::size_t scan = rs.queue.size(); scan > 0; --scan) {
      PendingItem it = rs.queue.front();
      rs.queue.pop_front();
      if (rs.state[it.point].done) continue;
      if (it.attempt > tuning.redispatch_budget + 1) {
        rs.state[it.point].done = true;
        --rs.undone;
        (*rs.on_error)(PointError{
            rs.pts[it.point].id, false,
            "remote sweep: point abandoned after " +
                std::to_string(it.attempt - 1) +
                " dispatch attempts (re-dispatch budget " +
                std::to_string(tuning.redispatch_budget) + ")"});
        continue;
      }
      rs.queue.push_back(it);
    }
  }

  /// mu held (released around socket writes). Serves every hungry live
  /// worker the first due point in the queue, skipping one just taken
  /// back from that worker while anyone else is alive to try it. Returns
  /// true when at least one dispatch frame went out.
  bool serve_hungry(std::unique_lock<std::mutex>& lk, RunState& rs) {
    bool any = false;
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      WorkerConn* w = workers[wi].get();
      if (!w->alive || !w->hungry) continue;
      const Clock::time_point now = Clock::now();
      const auto due = std::find_if(
          rs.queue.begin(), rs.queue.end(), [&](const PendingItem& it) {
            return !rs.state[it.point].done && now >= it.not_before &&
                   (it.prev_worker != w->id || live_workers <= 1);
          });
      if (due == rs.queue.end()) continue;
      const PendingItem it = *due;
      rs.queue.erase(due);

      // Dispatch payload: [u32 cfg_len][cfg][spec]; the reply id rides in
      // the frame header.
      ByteWriter msg;
      const auto cfg_bytes = serialize_config(*rs.pts[it.point].cfg);
      msg.u32(static_cast<std::uint32_t>(cfg_bytes.size()));
      for (std::byte b : cfg_bytes) msg.u8(std::to_integer<std::uint8_t>(b));
      msg.str(rs.pts[it.point].spec);
      const std::uint64_t reply_id = make_reply_id(generation, it.point);
      w->held.push_back(
          Lease{it, now + std::chrono::milliseconds(tuning.lease_ms)});
      w->hungry = false;
      rs.last_progress = now;

      lk.unlock();
      bool ok;
      {
        std::lock_guard<std::mutex> wl(w->write_mu);
        ok = w->fd >= 0 &&
             frame::write_frame(w->fd, kFrameDispatch, reply_id,
                                msg.bytes().data(), msg.bytes().size());
      }
      lk.lock();
      if (!ok) {
        declare_dead(w, /*by_deadline=*/false);  // requeues the lease
      } else {
        any = true;
      }
    }
    return any;
  }

  [[nodiscard]] Clock::duration next_wakeup(const RunState& rs) const {
    // Wake for the earliest of: heartbeat deadline, lease expiry, backoff
    // release, stuck-fleet aging, fleet-death grace lapse. Clamped so a
    // missed notify can never hang the scheduler.
    auto best = std::chrono::milliseconds(250);
    auto consider = [&best](Clock::duration d) {
      const auto ms =
          std::max(std::chrono::duration_cast<std::chrono::milliseconds>(d),
                   std::chrono::milliseconds(5));
      if (ms < best) best = ms;
    };
    const Clock::time_point now = Clock::now();
    for (const auto& w : workers) {
      if (w->alive) {
        consider(w->last_seen +
                 std::chrono::milliseconds(tuning.heartbeat_deadline_ms) -
                 now);
      }
    }
    if (tuning.lease_ms > 0) {
      for (const auto& w : workers) {
        for (const Lease& l : w->held) consider(l.deadline - now);
      }
      if (live_workers > 0 && !rs.queue.empty()) {
        consider(rs.last_progress +
                 std::chrono::milliseconds(tuning.lease_ms) - now);
      }
    }
    // Backoff releases only matter while someone could take the work;
    // with no live worker the next event is a registration (cv notify)
    // or a deadline, so the 250 ms clamp suffices.
    if (live_workers > 0) {
      for (const PendingItem& it : rs.queue) consider(it.not_before - now);
    } else if (ever_registered && tuning.fleet_death_grace_ms > 0) {
      consider(fleet_empty_since +
               std::chrono::milliseconds(tuning.fleet_death_grace_ms) - now);
    }
    return best;
  }
};

RemoteCoordinator::RemoteCoordinator(const std::string& listen,
                                     RemoteTuning tuning)
    : impl_(std::make_unique<Impl>(parse_endpoint(listen), std::move(tuning),
                                   &stats_)) {
  ignore_sigpipe();
}

RemoteCoordinator::~RemoteCoordinator() = default;

std::string RemoteCoordinator::address() const {
  return impl_->listener.address();
}

std::size_t RemoteCoordinator::connected_workers() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->live_workers;
}

RemoteStats RemoteCoordinator::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return stats_;
}

std::vector<std::size_t> RemoteCoordinator::run(
    const std::vector<RemotePoint>& points,
    const std::function<void(std::size_t, core::RunResult&&)>& on_result,
    const std::function<void(PointError&&)>& on_error) {
  if (points.empty()) return {};
  Impl::RunState rs;
  rs.on_result = &on_result;
  rs.on_error = &on_error;
  rs.pts = points;
  for (std::size_t p = 0; p < points.size(); ++p) {
    rs.queue.push_back({.point = static_cast<std::uint32_t>(p)});
  }
  rs.state.resize(rs.pts.size());
  rs.undone = rs.pts.size();
  return impl_->drive(rs);
}

// -------------------------------------------------------------- worker

void run_worker(const std::string& coordinator, const AppResolver& resolver,
                const WorkerOptions& opts) {
  ignore_sigpipe();
  const Endpoint ep = parse_endpoint(coordinator);
  const int fd = connect_tcp(ep.host.empty() ? "127.0.0.1" : ep.host, ep.port,
                             opts.connect_timeout_ms);

  // Registration handshake: versions first, then the optional HMAC
  // challenge, work last. The Hello payload is kept verbatim — the MAC
  // binds to exactly the bytes the coordinator read. Every failure here
  // closes the socket and throws.
  auto refuse = [fd](const std::string& why) {
    ::close(fd);
    return std::runtime_error("sweep worker: " + why);
  };
  std::vector<std::byte> hello_bytes;
  {
    ByteWriter hello;
    hello.u32(opts.protocol_version);
    hello.u8(kConfigKeyVersion);
    hello.u32(kResultCodecVersion);
    hello.str(opts.name);
    hello_bytes = hello.take();
    if (!frame::write_frame(fd, kFrameHello, 0, hello_bytes.data(),
                            hello_bytes.size())) {
      throw refuse("coordinator hung up mid-hello");
    }
  }
  std::uint32_t heartbeat_interval_ms = 1000;
  bool authed = false;
  for (;;) {
    if (!wait_readable(fd, opts.connect_timeout_ms)) {
      throw refuse("no registration reply from coordinator");
    }
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h)) {
      throw refuse("coordinator closed during registration");
    }
    if (h.len > kMaxControlPayload) {
      // Registration replies are tiny; a multi-gigabyte length claim is a
      // confused or hostile peer, not a frame worth allocating for.
      throw refuse("oversized registration frame");
    }
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len)) {
      throw refuse("torn registration reply");
    }
    if (h.kind == kFrameHelloReject) {
      throw refuse("registration rejected: " +
                   std::string(reinterpret_cast<const char*>(payload.data()),
                               payload.size()));
    }
    if (h.kind == kFrameAuthChallenge) {
      if (opts.secret.empty()) {
        throw refuse("coordinator requires authentication (--secret-file)");
      }
      if (authed || payload.size() != auth::kNonceSize) {
        throw refuse("malformed authentication challenge");
      }
      auth::Nonce nonce;
      std::memcpy(nonce.data(), payload.data(), nonce.size());
      const auth::Digest mac =
          auth::registration_mac(opts.secret, hello_bytes, nonce);
      if (!frame::write_frame(fd, kFrameAuthResponse, 0, mac.data(),
                              mac.size())) {
        throw refuse("coordinator hung up mid-authentication");
      }
      authed = true;
      continue;  // the verdict (HelloAck / HelloReject) comes next
    }
    if (h.kind != kFrameHelloAck) {
      throw refuse("unexpected registration frame");
    }
    if (!opts.secret.empty() && !authed) {
      // A worker provisioned with a secret must not silently serve an
      // unauthenticated coordinator: that would defeat the operator's
      // intent on exactly the machine that holds real workloads.
      throw refuse(
          "coordinator did not request authentication; refusing to serve "
          "it with --secret-file set");
    }
    try {
      ByteReader r(payload);
      heartbeat_interval_ms = r.u32();
    } catch (const CodecError&) {
      // Tolerate an empty ack; keep the default interval.
    }
    break;
  }
  set_send_timeout(fd, static_cast<int>(heartbeat_interval_ms) * 4 + 1000);

  // Heartbeat thread: beats even while a long simulation runs — that is
  // the whole point (busy != dead; only silence is death).
  std::mutex write_mu;
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool stop_hb = false;
  std::thread heartbeat([&] {
    std::uint64_t seq = 0;
    int budget = opts.max_heartbeats;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(hb_mu);
        hb_cv.wait_for(lk,
                       std::chrono::milliseconds(heartbeat_interval_ms),
                       [&] { return stop_hb; });
        if (stop_hb) return;
      }
      if (budget == 0) continue;  // test hook: fall silent, stay connected
      if (budget > 0) --budget;
      std::lock_guard<std::mutex> wl(write_mu);
      if (!frame::write_frame(fd, kFrameHeartbeat, seq++, nullptr, 0)) {
        return;  // coordinator gone; the main loop will notice on read
      }
    }
  });
  auto stop_heartbeat = [&] {
    {
      std::lock_guard<std::mutex> lk(hb_mu);
      stop_hb = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
  };

  // Pull scheduling: ask for one point now and again as soon as each
  // dispatch arrives.
  auto request_work = [&]() -> bool {
    std::lock_guard<std::mutex> wl(write_mu);
    const bool ok = frame::write_frame(fd, kFrameWorkRequest, 0, nullptr, 0);
    if (ok && opts.stats != nullptr) ++opts.stats->work_requests;
    return ok;
  };
  request_work();

  for (;;) {
    frame::FrameHeader h;
    if (!frame::read_frame_header(fd, h)) break;  // coordinator gone
    std::vector<std::byte> payload(h.len);
    if (h.len > 0 && !frame::read_all(fd, payload.data(), h.len)) break;
    if (h.kind == kFrameShutdown) break;
    if (h.kind != kFrameDispatch) continue;  // forward compatibility
    if (opts.stats != nullptr) ++opts.stats->dispatches;
    // One-deep prefetch: the next request travels while this point
    // simulates, so the round trip stays off the critical path.
    if (!request_work()) break;

    std::vector<std::byte> cfg_bytes;
    std::string spec;
    try {
      ByteReader r(payload);
      cfg_bytes.resize(r.u32());
      for (std::byte& b : cfg_bytes) b = static_cast<std::byte>(r.u8());
      spec = r.str();
    } catch (const CodecError&) {
      break;  // malformed dispatch: treat the stream as torn
    }

    std::uint8_t kind = frame::kFrameResult;
    std::vector<std::byte> reply;
    auto fail = [&kind, &reply](std::uint8_t k, const std::string& msg) {
      kind = k;
      reply.resize(msg.size());
      std::memcpy(reply.data(), msg.data(), msg.size());
    };
    try {
      const core::RunConfig cfg = deserialize_config(cfg_bytes);
      const core::AppFn app = resolver(cfg, spec);
      reply = encode_result(core::run(cfg, app));
    } catch (const WorkerAbort&) {
      break;  // test hook: simulate a fail-stop crash
    } catch (const std::invalid_argument& e) {
      fail(frame::kFrameInvalidConfig, e.what());
    } catch (const CodecError& e) {
      fail(frame::kFrameInvalidConfig, e.what());
    } catch (const std::exception& e) {
      fail(frame::kFrameRuntimeError, e.what());
    }
    if (opts.stats != nullptr) ++opts.stats->points_executed;
    std::lock_guard<std::mutex> wl(write_mu);
    if (!frame::write_frame(fd, kind, h.id, reply.data(), reply.size())) {
      break;  // EPIPE/RST: coordinator is gone
    }
  }

  stop_heartbeat();
  ::close(fd);
}

AppResolver registry_resolver() {
  return [](const core::RunConfig&, const std::string& spec) -> core::AppFn {
    std::istringstream ss(spec);
    std::string name;
    ss >> name;
    if (name.empty()) {
      throw std::invalid_argument(
          "remote point carries no app spec; this sweep cannot execute on "
          "remote workers (run it without --listen)");
    }
    util::Options wl_opts;
    std::string kv;
    while (ss >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("malformed app-spec token '" + kv + "'");
      }
      wl_opts.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    return wl::make_workload(name, wl_opts);
  };
}

}  // namespace sdrmpi::sweep
