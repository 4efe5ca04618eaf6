// transport::Endpoint — one side of a framed, sequenced byte stream.
//
// Wraps a connected stream socket (AF_UNIX socketpair for kUds, a
// pre-connected loopback TCP pair for kTcp — same codec either way) and
// speaks the frame.hpp codec over it: send_frame() stamps the next stream
// sequence number and writes the whole encoded frame; recv_frame() blocks
// until one full frame is decoded, CRC- and sequence-checked. The
// non-blocking half (queue_frame / send_some / recv_some / next_frame) lets
// one poll() loop drive the writes and reads of many links at once. Any
// codec violation aborts the process — on this transport a malformed frame
// is always a bug or a corruption, never something to paper over.
//
// All pairs are created in the coordinator BEFORE fork, so workers inherit
// fully connected sockets and no child ever dials anything (no races, no
// listener lifetime, and the TCP path needs no port coordination).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/wire.hpp"
#include "transport/frame.hpp"

namespace clb::transport {

/// Wire selection for a process pair. Mirrors rt::Transport minus kInProc.
enum class WireKind : std::uint8_t { kUds, kTcp };

class Endpoint {
 public:
  Endpoint() = default;
  explicit Endpoint(int fd) : fd_(fd) {}
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  Endpoint(Endpoint&& o) noexcept { *this = std::move(o); }
  Endpoint& operator=(Endpoint&& o) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  /// Releases ownership of the fd without closing it.
  int release();
  void close_fd();

  /// Blocking full write of one encoded frame; stamps the next sequence.
  void send_frame(FrameType type, const std::uint8_t* payload,
                  std::size_t len);
  void send_frame(FrameType type, const std::vector<std::uint8_t>& payload) {
    send_frame(type, payload.data(), payload.size());
  }

  /// Blocking read of the next frame. Aborts on EOF (peer died) and on any
  /// codec or sequence violation.
  [[nodiscard]] Frame recv_frame();

  /// Encodes one frame for send_some() to write out; stamps the next
  /// sequence. The previous queued frame must be fully written.
  void queue_frame(FrameType type, const std::vector<std::uint8_t>& payload);
  /// True while queued bytes remain unwritten.
  [[nodiscard]] bool sending() const { return out_off_ < out_.size(); }
  /// One non-blocking write of the queued bytes (call on POLLOUT). Aborts
  /// if the peer died.
  void send_some();
  /// One non-blocking read into the decoder (call on POLLIN). Aborts on EOF
  /// and on a read error.
  void recv_some();
  /// Takes the next whole frame the decoder holds into `f`; false when
  /// none is whole yet. Aborts on any codec or sequence violation.
  [[nodiscard]] bool next_frame(Frame& f);

  /// Byte/frame accounting for the wire gauges (RTT histograms are kept by
  /// the layer that knows what a round trip is).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t frames_sent() const { return next_seq_; }
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_;
  }
  void account_into(obs::WireStats& s) const {
    s.bytes_sent += bytes_sent_;
    s.bytes_received += bytes_received_;
    s.frames_sent += next_seq_;
    s.frames_received += frames_received_;
  }

 private:
  /// One recv() into the decoder with `flags`; returns quietly when a
  /// non-blocking read finds nothing.
  void read_into_decoder(int flags);

  int fd_ = -1;
  std::uint64_t next_seq_ = 0;  // last sequence sent
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t frames_received_ = 0;
  FrameReader reader_;
  std::vector<std::uint8_t> out_;  // queued encoded frames
  std::size_t out_off_ = 0;        // bytes of out_ already written
};

/// Creates a connected stream pair of the given kind. kUds uses
/// socketpair(AF_UNIX, SOCK_STREAM); kTcp binds a 127.0.0.1 ephemeral
/// listener, connects, accepts, sets TCP_NODELAY and closes the listener.
/// Both ends get enlarged send/receive buffers, so a typical exchange
/// frame goes out in one write.
[[nodiscard]] std::pair<Endpoint, Endpoint> make_stream_pair(WireKind kind);

}  // namespace clb::transport
