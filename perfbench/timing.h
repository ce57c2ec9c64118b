// Benchmark-side tracing of one simulated cluster run.
//
// A TimingTransport is a pass-through net::Transport placed between the
// endpoints and the transport below them. Like net::DeltaTransport it
// attaches one proxy endpoint per endpoint to the inner transport, so ids
// and delivery order are the inner transport's and the run's transcript is
// unchanged. Every delivery into an endpoint and every send out of one
// becomes a span in a shared SpanLog; a span's parent is the span that was
// open when it started, so a send made by a handler is that handler's
// child. Spans stay in memory until the run ends; a bucket's self time is
// the duration of its spans minus the time covered by their children.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/delta_transport.h"
#include "net/transport.h"
#include "obs/instrument.h"
#include "sim/network.h"

namespace perfbench {

/// Where a span's self time is booked. The names are the per-layer metric
/// prefixes of the benchmark.
enum class Bucket : std::uint8_t {
  kSimSend,  ///< inside sim::Network::send: event push + metering encode
  kNetSend,  ///< net::DeltaTransport send path (delta encode)
  kNetRecv,  ///< net::DeltaTransport receive path (reconstruct)
  kBcast,    ///< SEND/ECHO/READY handlers, incl. the step an r-delivery runs
  kLa,       ///< agreement-message handlers
  kRsm,      ///< RSM client and replica handlers
};
inline constexpr std::size_t kNumBuckets = 6;
const char* bucket_name(Bucket b);

/// Handler bucket of a delivered (logical, never delta-wrapped) message.
Bucket handler_bucket(const bgla::sim::Message& msg);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 if none
  std::uint32_t type_id = 0;
  Bucket bucket = Bucket::kSimSend;
};

class SpanLog {
 public:
  std::int32_t open(Bucket bucket, std::uint32_t type_id);
  void close(std::int32_t span);

  struct Totals {
    std::array<double, kNumBuckets> self_s{};  ///< per-bucket self time
    double top_level_s = 0.0;  ///< time covered by spans without a parent
  };
  Totals totals() const;

  /// Self time and span count per (bucket, message type), one line each.
  std::string breakdown() const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<double> self_times() const;

  std::deque<Span> spans_;  // deque: growing never moves a recorded span
  std::vector<std::int32_t> open_;
};

/// Non-self sends of one message type: count and encoded bytes.
struct TypeTraffic {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

class TimingTransport final : public bgla::net::Transport {
 public:
  /// Sends are booked to `send_bucket`. Deliveries are booked to
  /// `recv_bucket`, or to the delivered message's layer when it is unset.
  TimingTransport(bgla::net::Transport& inner, SpanLog& log,
                  Bucket send_bucket, std::optional<Bucket> recv_bucket);
  ~TimingTransport() override;

  bgla::ProcessId attach(bgla::net::Endpoint& e) override;
  void detach(bgla::ProcessId id) override;
  void send(bgla::ProcessId from, bgla::ProcessId to,
            bgla::sim::MessagePtr msg) override;
  bgla::net::Time now() const override { return inner_.now(); }
  std::uint64_t current_depth() const override {
    return inner_.current_depth();
  }
  void request_stop() override { inner_.request_stop(); }

  const std::map<std::uint32_t, TypeTraffic>& sent_by_type() const {
    return sent_;
  }

 private:
  class Proxy;

  bgla::net::Transport& inner_;
  SpanLog& log_;
  Bucket send_bucket_;
  std::optional<Bucket> recv_bucket_;
  std::map<bgla::ProcessId, std::unique_ptr<Proxy>> proxies_;
  std::map<std::uint32_t, TypeTraffic> sent_;
};

/// The transport stack of one episode: what the endpoints attach to,
/// between them and the sim::Network. Untraced it is the network itself or
/// a DeltaTransport over it. Traced, a TimingTransport sits under the
/// endpoints; with delta on, a second one sits below the DeltaTransport so
/// the difference of the two gives DeltaTransport's own time.
class Wire {
 public:
  /// `log` null = untraced. `instrument` feeds the DeltaTransport's wire
  /// counters.
  Wire(bgla::sim::Network& net, bool delta, SpanLog* log,
       bgla::obs::Instrument* instrument);

  bgla::net::Transport& endpoints() { return *endpoints_; }
  const bgla::net::DeltaTransport* delta() const {
    return delta_ ? &*delta_ : nullptr;
  }
  /// The timing transport next to the network (traced runs only).
  const TimingTransport* network_side() const {
    return bottom_ ? &*bottom_ : nullptr;
  }

 private:
  std::optional<TimingTransport> bottom_;
  std::optional<bgla::net::DeltaTransport> delta_;
  std::optional<TimingTransport> top_;
  bgla::net::Transport* endpoints_ = nullptr;
};

}  // namespace perfbench
