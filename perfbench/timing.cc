#include "timing.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace perfbench {

using bgla::ProcessId;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* bucket_name(Bucket b) {
  switch (b) {
    case Bucket::kSimSend: return "sim.send";
    case Bucket::kNetSend: return "net.send";
    case Bucket::kNetRecv: return "net.recv";
    case Bucket::kBcast: return "bcast.handle";
    case Bucket::kLa: return "la.handle";
    case Bucket::kRsm: return "rsm.handle";
  }
  return "?";
}

Bucket handler_bucket(const bgla::sim::Message& msg) {
  switch (msg.layer()) {
    case bgla::sim::Layer::kBroadcast: return Bucket::kBcast;
    case bgla::sim::Layer::kRsm: return Bucket::kRsm;
    case bgla::sim::Layer::kAgreement:
    case bgla::sim::Layer::kOther: return Bucket::kLa;
  }
  return Bucket::kLa;
}

// ---------------------------------------------------------------- SpanLog --

std::int32_t SpanLog::open(Bucket bucket, std::uint32_t type_id) {
  Span s;
  s.parent = open_.empty() ? -1 : open_.back();
  s.type_id = type_id;
  s.bucket = bucket;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  open_.push_back(idx);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return idx;
}

void SpanLog::close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  BGLA_CHECK_MSG(!open_.empty() && open_.back() == span,
                 "span closed out of order");
  open_.pop_back();
}

std::vector<double> SpanLog::self_times() const {
  BGLA_CHECK_MSG(open_.empty(), "span log read while a span is open");
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  return self;
}

SpanLog::Totals SpanLog::totals() const {
  const std::vector<double> self = self_times();
  Totals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    t.self_s[static_cast<std::size_t>(spans_[i].bucket)] += self[i] * 1e-9;
    if (spans_[i].parent < 0) {
      t.top_level_s +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
  }
  return t;
}

std::string SpanLog::breakdown() const {
  const std::vector<double> self = self_times();
  std::map<std::pair<Bucket, std::uint32_t>, std::pair<std::uint64_t, double>>
      rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& row = rows[{spans_[i].bucket, spans_[i].type_id}];
    ++row.first;
    row.second += self[i] * 1e-9;
  }
  std::ostringstream os;
  for (const auto& [key, row] : rows) {
    os << bucket_name(key.first) << " type=" << key.second
       << " spans=" << row.first << " self_s=" << row.second << "\n";
  }
  return os.str();
}

// -------------------------------------------------------- TimingTransport --

/// Inner-facing stand-in for one endpoint: times each delivery.
class TimingTransport::Proxy final : public bgla::net::Endpoint {
 public:
  Proxy(TimingTransport& parent, bgla::net::Endpoint& outer, ProcessId id)
      : bgla::net::Endpoint(parent.inner_, id),
        parent_(parent),
        outer_(outer) {}

  void on_start() override { outer_.on_start(); }

  void on_message(ProcessId from, const bgla::sim::MessagePtr& msg) override {
    const Bucket b = parent_.recv_bucket_.value_or(handler_bucket(*msg));
    const std::int32_t span = parent_.log_.open(b, msg->type_id());
    outer_.on_message(from, msg);
    parent_.log_.close(span);
  }

 private:
  TimingTransport& parent_;
  bgla::net::Endpoint& outer_;
};

TimingTransport::TimingTransport(bgla::net::Transport& inner, SpanLog& log,
                                 Bucket send_bucket,
                                 std::optional<Bucket> recv_bucket)
    : inner_(inner),
      log_(log),
      send_bucket_(send_bucket),
      recv_bucket_(recv_bucket) {}

TimingTransport::~TimingTransport() = default;

ProcessId TimingTransport::attach(bgla::net::Endpoint& e) {
  // The proxy takes the id the inner transport assigns; its Endpoint
  // constructor checks that this is the id the endpoint asked for, which
  // holds as long as endpoints attach in id order, whether through this
  // transport or (rsm::FakeDeciderReplica) straight to the network.
  auto proxy = std::make_unique<Proxy>(*this, e, e.id());
  const ProcessId id = proxy->id();
  BGLA_CHECK_MSG(proxies_.count(id) == 0, "endpoint " << id << " attached twice");
  proxies_[id] = std::move(proxy);
  return id;
}

void TimingTransport::detach(ProcessId id) { proxies_.erase(id); }

void TimingTransport::send(ProcessId from, ProcessId to,
                           bgla::sim::MessagePtr msg) {
  const bgla::sim::MessagePtr sent = msg;
  const std::int32_t span = log_.open(send_bucket_, sent->type_id());
  inner_.send(from, to, std::move(msg));
  log_.close(span);
  // Read after the send so the first encode stays inside the span of the
  // layer that pays for it.
  if (from != to) {
    TypeTraffic& t = sent_[sent->type_id()];
    ++t.msgs;
    t.bytes += sent->encoded().size();
  }
}

// ------------------------------------------------------------------- Wire --

Wire::Wire(bgla::sim::Network& net, bool delta, SpanLog* log,
           bgla::obs::Instrument* instrument) {
  bgla::net::Transport* below = &net;
  if (log != nullptr) {
    bottom_.emplace(net, *log, Bucket::kSimSend,
                    delta ? std::optional<Bucket>(Bucket::kNetRecv)
                          : std::nullopt);
    below = &*bottom_;
  }
  if (delta) {
    bgla::net::DeltaTransport::Options opts;
    opts.enabled = true;
    opts.instrument = instrument;
    delta_.emplace(*below, opts);
    below = &*delta_;
    if (log != nullptr) {
      top_.emplace(*below, *log, Bucket::kNetSend, std::nullopt);
      below = &*top_;
    }
  }
  endpoints_ = below;
}

}  // namespace perfbench
