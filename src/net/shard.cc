#include "net/shard.h"

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <unordered_map>

#include "net/framing.h"
#include "storage/ingest_log.h"
#include "util/logging.h"

namespace datacell::net {

namespace {

// Reactor timeouts: the wake pipes carry every wakeup that matters (Stop,
// basket drained past the low watermark); the timeouts only bound recovery
// from lost races, so they can be long.
constexpr int kEpollIdleMs = 500;
constexpr int kEpollPausedMs = 20;
constexpr int kMaxEvents = 256;

}  // namespace

/// One reactor shard: an epoll set over this shard's partition of
/// connections, a wake pipe, and an inbox the acceptor routes new
/// connections through. All connection state is owned by the shard's
/// reactor thread; the inbox is the only cross-thread handoff.
class ShardedIngress::Shard {
 public:
  Shard(ShardedIngress* parent, size_t index, core::ReceptorPtr receptor)
      : parent_(parent), index_(index), receptor_(std::move(receptor)) {}

  ~Shard() { Shutdown(); }

  Status Start() {
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
      return Status::IOError("epoll_create1: " + ErrnoString(errno));
    }
    RETURN_NOT_OK(wake_.Open());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_.read_fd();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_.read_fd(), &ev) != 0) {
      return Status::IOError("epoll_ctl(wake): " + ErrnoString(errno));
    }
    if (!receptor_->outputs().empty()) {
      log_stream_ = receptor_->outputs().front()->name();
    }
    // Backpressure release signal, per shard: draining this shard's basket
    // past the low watermark pokes only this shard's wake pipe.
    for (const core::BasketPtr& b : receptor_->outputs()) {
      size_t id = b->AddListener([this] {
        if (paused_.load(std::memory_order_relaxed)) wake_.Notify();
      });
      subscriptions_.emplace_back(b, id);
    }
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  void Notify() { wake_.Notify(); }

  /// Joins the reactor (caller must have set parent stop + Notify first)
  /// and releases the shard's kernel resources. Idempotent.
  void Shutdown() {
    if (thread_.joinable()) thread_.join();
    for (const auto& [basket, id] : subscriptions_) {
      basket->RemoveListener(id);
    }
    subscriptions_.clear();
    wake_.Close();
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
      epoll_fd_ = -1;
    }
  }

  /// Acceptor thread: hands a freshly accepted connection to this shard.
  /// The connection counts as active before it counts as accepted, so
  /// finished() never sees an accepted session with nothing open.
  void Route(TcpStream stream) {
    active_.fetch_add(1);
    routed_.fetch_add(1);
    parent_->accepted_.fetch_add(1);
    parent_->m_connections_->Increment();
    {
      MutexLock lock(&mu_);
      inbox_.push_back(std::move(stream));
    }
    wake_.Notify();
  }

  // Parent/aggregation accessors (the class is file-local, so these stay
  // public rather than friending the enclosing class).
  const std::string& log_stream() const { return log_stream_; }
  const core::ReceptorPtr& receptor() const { return receptor_; }
  uint64_t routed() const { return routed_.load(); }
  uint64_t active() const { return active_.load(); }
  uint64_t tuples() const { return tuples_.load(); }
  uint64_t dropped() const { return dropped_.load(); }
  uint64_t bp_engagements() const { return bp_engaged_.load(); }
  bool paused() const { return paused_.load(); }

 private:
  struct Conn {
    TcpStream stream;
    bool handshaken = false;
    bool eof = false;    // peer half-closed; buffered tail still drains
    bool armed = false;  // EPOLLIN currently requested
  };
  enum class Drain { kIdle, kPaused, kClose };

  void Loop() {
    epoll_event events[kMaxEvents];
    while (!parent_->stop_.load()) {
      // Re-open the valve once this shard's bounded outputs drained to
      // their low watermark; connections may hold buffered lines.
      if (paused_.load() && receptor_->BackpressureReleased()) {
        paused_.store(false);
        RearmAll();
        PumpAll();
        if (paused_.load()) continue;  // valve closed again mid-resume
      }

      const bool paused = paused_.load();
      int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                           paused ? kEpollPausedMs : kEpollIdleMs);
      if (n < 0 && errno != EINTR) {
        DC_LOG(Error) << "shard " << index_
                      << " epoll_wait: " << ErrnoString(errno);
        break;
      }
      if (parent_->stop_.load()) break;

      bool woken = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_.read_fd()) {
          wake_.Drain();
          woken = true;
          continue;
        }
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        if (!PumpConn(it->second.get())) CloseConn(fd);
      }
      if (woken) AdoptInbox();
      // Level-triggered epoll would spin on unread paused sockets; take
      // them out of the interest set until the valve re-opens.
      if (paused_.load()) DisarmHandshaken();
    }

    // Shut down every owned stream so peers see EOF promptly, including
    // connections still parked in the inbox.
    AdoptInbox();
    for (auto& [fd, conn] : conns_) {
      conn->stream.Close();
      active_.fetch_sub(1);
    }
    conns_.clear();
  }

  /// Moves routed connections from the inbox into the epoll set.
  void AdoptInbox() {
    std::vector<TcpStream> pending;
    {
      MutexLock lock(&mu_);
      pending.swap(inbox_);
    }
    for (TcpStream& s : pending) {
      const int fd = s.fd();
      auto conn = std::make_unique<Conn>();
      conn->stream = std::move(s);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        DC_LOG(Warn) << "shard epoll add: " << ErrnoString(errno);
        active_.fetch_sub(1);
        continue;  // conn destructor closes the socket
      }
      conn->armed = true;
      Conn* raw = conn.get();
      conns_.emplace(fd, std::move(conn));
      // Pump immediately: the client's header may already be buffered.
      if (!PumpConn(raw)) CloseConn(fd);
    }
  }

  void PumpAll() {
    std::vector<int> closed;
    for (auto& [fd, conn] : conns_) {
      if (!PumpConn(conn.get())) closed.push_back(fd);
    }
    for (int fd : closed) CloseConn(fd);
  }

  /// Reads/parses/delivers for one connection. False → remove it.
  bool PumpConn(Conn* conn) {
    while (!parent_->stop_.load()) {
      Drain state = DrainBuffered(conn);
      if (state == Drain::kClose) return false;
      if (state == Drain::kPaused) return true;  // buffered bytes keep
      if (conn->eof) return false;               // fully drained
      Result<size_t> n = conn->stream.FillFromSocket();
      if (!n.ok()) {
        if (n.status().code() == StatusCode::kNotFound) {
          conn->eof = true;  // clean half-close: drain the buffered tail
          continue;
        }
        // Mid-stream disconnect (RST etc.): keep what was delivered, drop
        // the rest of this connection; sibling shards never notice.
        DC_LOG(Warn) << "shard " << index_
                     << " connection error: " << n.status().ToString();
        return false;
      }
      if (*n == 0) return true;  // would block; epoll will call back
    }
    return true;
  }

  Drain DrainBuffered(Conn* conn) {
    while (true) {
      if (!conn->handshaken) {
        std::optional<std::string> line = NextLine(conn);
        if (!line.has_value()) {
          if (conn->eof) {
            DC_LOG(Warn) << "shard: connection closed before schema header";
            return Drain::kClose;
          }
          return Drain::kIdle;
        }
        if (!Handshake(conn, *line)) return Drain::kClose;
        continue;
      }

      size_t credit = receptor_->CreditRemaining();
      if (credit == 0) {
        if (EngagePause()) return Drain::kPaused;
        credit = receptor_->CreditRemaining();
      }
      const size_t allowed = std::min(parent_->opts_.max_batch_rows, credit);
      Table batch(parent_->codec_.schema());
      while (batch.num_rows() < allowed) {
        std::optional<std::string> line = NextLine(conn);
        if (!line.has_value()) break;
        DecodeCount(*line, &batch);
      }
      if (batch.num_rows() == 0) return Drain::kIdle;
      if (parent_->ingest_log_ != nullptr) {
        // Write-ahead under this shard's stream: the batch must be in the
        // log before the engine can observe it, or a crash between the two
        // would lose tuples the sensor believes were accepted. A log
        // failure drops the connection rather than silently degrading to
        // non-durable ingest.
        Result<std::pair<uint64_t, uint64_t>> seqs =
            parent_->ingest_log_->AppendBatch(log_stream_, batch);
        if (!seqs.ok()) {
          DC_LOG(Error) << "shard log append failed: "
                        << seqs.status().ToString();
          return Drain::kClose;
        }
      }
      Result<size_t> delivered =
          receptor_->Deliver(batch, parent_->clock_->Now());
      if (!delivered.ok()) {
        DC_LOG(Error) << "shard deliver failed: "
                      << delivered.status().ToString();
        return Drain::kClose;
      }
    }
  }

  std::optional<std::string> NextLine(Conn* conn) {
    if (std::optional<std::string> line = conn->stream.PopBufferedLine()) {
      return line;
    }
    if (conn->eof) {
      std::string tail = conn->stream.TakeBufferedRemainder();
      if (!tail.empty()) return tail;
    }
    return std::nullopt;
  }

  bool Handshake(Conn* conn, const std::string& line) {
    Result<Hello> hello = ParseHello(line);
    if (!hello.ok()) {
      DC_LOG(Warn) << "shard: bad handshake line '" << line
                   << "': " << hello.status().ToString();
      return false;
    }
    switch (hello->kind) {
      case HelloKind::kStats: {
        parent_->scrapes_.fetch_add(1);
        Status st = conn->stream.WriteAll(parent_->StatsLine());
        if (!st.ok()) DC_LOG(Debug) << "shard STATS reply: " << st.ToString();
        return false;
      }
      case HelloKind::kSeq: {
        // The reply is the logical stream's across-shard total: a
        // reconnecting sensor's fd almost always rehashes to a different
        // shard, so any single shard's stream seq would under-report.
        parent_->scrapes_.fetch_add(1);
        const uint64_t seq = parent_->TotalLoggedSeq();
        Status st =
            conn->stream.WriteAll("SEQ " + std::to_string(seq) + "\n");
        if (!st.ok()) DC_LOG(Debug) << "shard SEQ reply: " << st.ToString();
        return false;
      }
      case HelloKind::kSchema:
        break;
    }
    if (!(hello->schema == parent_->codec_.schema())) {
      DC_LOG(Warn) << "shard: schema mismatch, got '" << line << "'";
      return false;
    }
    conn->handshaken = true;
    return true;
  }

  void DecodeCount(const std::string& line, Table* batch) {
    Status st = parent_->codec_.DecodeInto(line, batch);
    if (st.ok()) {
      tuples_.fetch_add(1);
      parent_->m_tuples_->Increment();
    } else {
      dropped_.fetch_add(1);
      parent_->m_dropped_->Increment();
      DC_LOG(Debug) << "shard dropping malformed tuple: " << st.ToString();
    }
  }

  /// Closes this shard's credit valve; returns false if credit reappeared
  /// (raced with a consumer) and reading may continue. The flag is set
  /// first, then credit re-checked: a consumer draining concurrently either
  /// restores credit before the re-check or fires the basket listener after
  /// it saw paused_ == true (waking this shard). No release is lost.
  bool EngagePause() {
    const bool was_paused = paused_.exchange(true);
    if (receptor_->BackpressureReleased()) {
      paused_.store(false);
      return false;
    }
    if (!was_paused) {
      bp_engaged_.fetch_add(1);
      parent_->m_bp_engaged_->Increment();
      receptor_->NoteCreditStall();
    }
    return true;
  }

  void Arm(Conn* conn, bool on) {
    if (conn->armed == on) return;
    epoll_event ev{};
    ev.events = on ? EPOLLIN : 0;
    ev.data.fd = conn->stream.fd();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->stream.fd(), &ev) == 0) {
      conn->armed = on;
    }
  }

  void DisarmHandshaken() {
    for (auto& [fd, conn] : conns_) {
      if (conn->handshaken) Arm(conn.get(), false);
    }
  }

  void RearmAll() {
    for (auto& [fd, conn] : conns_) Arm(conn.get(), true);
  }

  void CloseConn(int fd) {
    conns_.erase(fd);  // stream destructor closes; kernel drops epoll entry
    active_.fetch_sub(1);
  }

  // Wiring set at construction/Start before the reactor thread spawns and
  // immutable afterwards.
  ShardedIngress* parent_ DC_UNGUARDED;
  size_t index_ DC_UNGUARDED;
  core::ReceptorPtr receptor_ DC_UNGUARDED;
  std::string log_stream_ DC_UNGUARDED;
  // Internally synchronized / reactor-thread-only kernel handles.
  int epoll_fd_ DC_UNGUARDED = -1;
  WakePipe wake_ DC_UNGUARDED;
  std::thread thread_ DC_UNGUARDED;
  // Listener registrations on this shard's baskets; Start/Shutdown only.
  std::vector<std::pair<core::BasketPtr, size_t>> subscriptions_
      DC_UNGUARDED;

  // Acceptor → reactor handoff.
  Mutex mu_{LockRank::kActuator};
  std::vector<TcpStream> inbox_ DC_GUARDED_BY(mu_);

  // Connection table: reactor thread only.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_ DC_UNGUARDED;

  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> bp_engaged_{0};
};

ShardedIngress::ShardedIngress(std::vector<core::ReceptorPtr> shard_receptors,
                               Codec codec, Clock* clock,
                               ShardedIngressOptions opts)
    : codec_(std::move(codec)), clock_(clock), opts_(opts) {
  if (opts_.max_batch_rows == 0) opts_.max_batch_rows = 1;
  if (opts_.max_connections == 0) opts_.max_connections = 1;
  opts_.num_shards = shard_receptors.size();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  m_tuples_ = reg.GetCounter("gateway.tuples_received");
  m_dropped_ = reg.GetCounter("gateway.tuples_dropped");
  m_connections_ = reg.GetCounter("gateway.connections");
  m_bp_engaged_ = reg.GetCounter("gateway.backpressure_engagements");
  for (size_t i = 0; i < shard_receptors.size(); ++i) {
    shards_.push_back(
        std::make_unique<Shard>(this, i, std::move(shard_receptors[i])));
  }
}

ShardedIngress::~ShardedIngress() { Stop(); }

void ShardedIngress::EnableIngestLog(storage::IngestLog* log) {
  ingest_log_ = log;
}

Status ShardedIngress::Start(uint16_t port) {
  if (shards_.empty()) {
    return Status::InvalidArgument("sharded ingress needs >= 1 receptor");
  }
  ASSIGN_OR_RETURN(listener_, TcpListener::Bind(port));
  port_ = listener_.port();
  RETURN_NOT_OK(listener_.SetNonBlocking(true));
  if (Status st = accept_wake_.Open(); !st.ok()) {
    listener_.Close();
    return st;
  }
  stop_.store(false);
  for (auto& shard : shards_) {
    if (Status st = shard->Start(); !st.ok()) {
      stop_.store(true);
      for (auto& s : shards_) {
        s->Notify();
        s->Shutdown();
      }
      listener_.Close();
      accept_wake_.Close();
      return st;
    }
  }
  started_.store(true);
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  ShardRegistry::Global().Register(this);
  return Status::OK();
}

void ShardedIngress::Stop() {
  if (!started_.exchange(false)) return;
  ShardRegistry::Global().Unregister(this);
  stop_.store(true);
  accept_wake_.Notify();
  for (auto& shard : shards_) shard->Notify();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& shard : shards_) shard->Shutdown();
  listener_.Close();
  accept_wake_.Close();
}

void ShardedIngress::AcceptorLoop() {
  pollfd pfds[2];
  while (!stop_.load()) {
    const bool accepting = active_connections() < opts_.max_connections;
    pfds[0] = {accept_wake_.read_fd(), POLLIN, 0};
    nfds_t nfds = 1;
    if (accepting) {
      pfds[1] = {listener_.fd(), POLLIN, 0};
      nfds = 2;
    }
    int rc = ::poll(pfds, nfds, accepting ? kEpollIdleMs : kEpollPausedMs);
    if (rc < 0 && errno != EINTR) {
      DC_LOG(Error) << "acceptor poll: " << ErrnoString(errno);
      break;
    }
    if (stop_.load()) break;
    if (pfds[0].revents & POLLIN) accept_wake_.Drain();
    if (!accepting || (pfds[1].revents & (POLLIN | POLLERR)) == 0) continue;
    // Drain the accept queue completely: a 10k-connection storm must not
    // pay one poll round per connection.
    while (active_connections() < opts_.max_connections) {
      Result<std::optional<TcpStream>> next = listener_.TryAccept();
      if (!next.ok()) {
        DC_LOG(Warn) << "acceptor accept failed: " << next.status().ToString();
        break;
      }
      if (!next->has_value()) break;
      TcpStream stream = std::move(**next);
      if (Status st = stream.SetNonBlocking(true); !st.ok()) {
        DC_LOG(Warn) << "acceptor: " << st.ToString();
        continue;
      }
      // fd-hash routing: cheap, deterministic for a given fd, and spreads
      // a storm evenly because the kernel hands out ascending fds.
      const size_t shard = static_cast<size_t>(stream.fd()) % shards_.size();
      shards_[shard]->Route(std::move(stream));
    }
  }
}

bool ShardedIngress::finished() const {
  if (!started_.load()) return stop_.load();  // true after Stop()
  const uint64_t accepted = accepted_.load();
  const uint64_t scrapes = scrapes_.load();
  if (accepted <= scrapes) return false;
  return active_connections() == 0;
}

uint64_t ShardedIngress::tuples_received() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->tuples();
  return total;
}

uint64_t ShardedIngress::tuples_dropped() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->dropped();
  return total;
}

size_t ShardedIngress::active_connections() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->active();
  return static_cast<size_t>(total);
}

uint64_t ShardedIngress::backpressure_engagements() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->bp_engagements();
  return total;
}

bool ShardedIngress::backpressured() const {
  for (const auto& s : shards_) {
    if (s->paused()) return true;
  }
  return false;
}

ShardedIngress::ShardStats ShardedIngress::shard_stats(size_t shard) const {
  ShardStats out;
  if (shard >= shards_.size()) return out;
  const Shard& s = *shards_[shard];
  out.connections = s.routed();
  out.active = s.active();
  out.tuples = s.tuples();
  out.dropped = s.dropped();
  out.backpressure_engagements = s.bp_engagements();
  out.backpressured = s.paused();
  for (const core::BasketPtr& b : s.receptor()->outputs()) {
    out.credit_stalls += b->stats().credit_stalls;
  }
  return out;
}

uint64_t ShardedIngress::TotalLoggedSeq() const {
  if (ingest_log_ == nullptr) return 0;
  uint64_t total = 0;
  for (const auto& s : shards_) {
    if (!s->log_stream().empty()) {
      total += ingest_log_->last_seq(s->log_stream());
    }
  }
  return total;
}

std::string ShardedIngress::StatsLine() const {
  std::string out = "STATS";
  const auto field = [&out](const std::string& key, uint64_t v) {
    out += " " + key + "=" + std::to_string(v);
  };
  field("tuples_received", tuples_received());
  field("tuples_dropped", tuples_dropped());
  field("connections_accepted", accepted_.load());
  field("active_connections", active_connections());
  field("backpressure_engagements", backpressure_engagements());
  field("backpressured", backpressured() ? 1 : 0);
  field("shards", shards_.size());
  if (ingest_log_ != nullptr) {
    const storage::IngestLog::Stats ls = ingest_log_->stats();
    field("log_records", ls.records);
    field("log_bytes", ls.bytes);
    field("log_last_seq", TotalLoggedSeq());
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "shard." + std::to_string(i) + ".";
    field(prefix + "connections", shards_[i]->routed());
    field(prefix + "active", shards_[i]->active());
    field(prefix + "tuples", shards_[i]->tuples());
    field(prefix + "backpressured", shards_[i]->paused() ? 1 : 0);
  }
  for (const auto& shard : shards_) {
    for (const core::BasketPtr& b : shard->receptor()->outputs()) {
      const core::Basket::Stats s = b->stats();
      const std::string prefix = "basket." + b->name() + ".";
      field(prefix + "rows", b->size());
      field(prefix + "appended", s.appended);
      field(prefix + "dropped", s.dropped);
      field(prefix + "credit_stalls", s.credit_stalls);
    }
  }
  out += "\n";
  return out;
}

ShardRegistry& ShardRegistry::Global() {
  static ShardRegistry* instance = new ShardRegistry();
  return *instance;
}

void ShardRegistry::Register(ShardedIngress* ingress) {
  MutexLock lock(&mu_);
  list_.push_back(ingress);
}

void ShardRegistry::Unregister(ShardedIngress* ingress) {
  MutexLock lock(&mu_);
  list_.erase(std::remove(list_.begin(), list_.end(), ingress), list_.end());
}

std::vector<ShardedIngress*> ShardRegistry::Ingresses() const {
  MutexLock lock(&mu_);
  return list_;
}

}  // namespace datacell::net
