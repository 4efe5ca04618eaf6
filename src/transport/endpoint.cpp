#include "transport/endpoint.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.hpp"

namespace clb::transport {

namespace {

// Generous kernel buffers, so a typical exchange frame goes out in one
// write. Correctness does not depend on them: an exchange drives its writes
// and reads from one poll() loop (transport::SocketComm::exchange).
constexpr int kSockBuf = 1 << 20;

void tune_socket(int fd) {
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSockBuf, sizeof(kSockBuf));
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSockBuf, sizeof(kSockBuf));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process signal.
    const ssize_t w = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      CLB_CHECK(false, "transport: socket write failed (peer died?)");
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

Endpoint::~Endpoint() { close_fd(); }

Endpoint& Endpoint::operator=(Endpoint&& o) noexcept {
  if (this != &o) {
    close_fd();
    fd_ = o.fd_;
    o.fd_ = -1;
    next_seq_ = o.next_seq_;
    bytes_sent_ = o.bytes_sent_;
    bytes_received_ = o.bytes_received_;
    frames_received_ = o.frames_received_;
    reader_ = std::move(o.reader_);
    out_ = std::move(o.out_);
    out_off_ = o.out_off_;
  }
  return *this;
}

int Endpoint::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Endpoint::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Endpoint::send_frame(FrameType type, const std::uint8_t* payload,
                          std::size_t len) {
  CLB_CHECK(fd_ >= 0, "transport: send on a closed endpoint");
  CLB_CHECK(!sending(), "transport: a frame sent behind an unsent one");
  const std::vector<std::uint8_t> wire =
      encode_frame(type, ++next_seq_, payload, len);
  write_all(fd_, wire.data(), wire.size());
  bytes_sent_ += wire.size();
}

Frame Endpoint::recv_frame() {
  Frame f;
  while (!next_frame(f)) read_into_decoder(0);
  return f;
}

void Endpoint::queue_frame(FrameType type,
                           const std::vector<std::uint8_t>& payload) {
  CLB_CHECK(fd_ >= 0, "transport: send on a closed endpoint");
  CLB_CHECK(!sending(), "transport: a frame queued behind an unsent one");
  out_ = encode_frame(type, ++next_seq_, payload);
  out_off_ = 0;
  bytes_sent_ += out_.size();
}

void Endpoint::send_some() {
  const ssize_t w = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
  if (w < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    CLB_CHECK(false, "transport: socket write failed (peer died?)");
  }
  out_off_ += static_cast<std::size_t>(w);
}

void Endpoint::recv_some() { read_into_decoder(MSG_DONTWAIT); }

bool Endpoint::next_frame(Frame& f) {
  CLB_CHECK(fd_ >= 0, "transport: recv on a closed endpoint");
  const DecodeStatus st = reader_.next(f);
  if (st == DecodeStatus::kNeedMore) return false;
  if (st != DecodeStatus::kOk) CLB_CHECK(false, reader_.error().c_str());
  ++frames_received_;
  return true;
}

void Endpoint::read_into_decoder(int flags) {
  std::uint8_t buf[64 * 1024];
  ssize_t r = 0;
  do {
    r = ::recv(fd_, buf, sizeof(buf), flags);
  } while (r < 0 && errno == EINTR);
  if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  CLB_CHECK(r >= 0, "transport: socket read failed");
  CLB_CHECK(r != 0, "transport: peer closed the connection mid-stream");
  bytes_received_ += static_cast<std::uint64_t>(r);
  reader_.feed(buf, static_cast<std::size_t>(r));
}

std::pair<Endpoint, Endpoint> make_stream_pair(WireKind kind) {
  if (kind == WireKind::kUds) {
    int fds[2];
    CLB_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
              "transport: socketpair(AF_UNIX) failed");
    tune_socket(fds[0]);
    tune_socket(fds[1]);
    return {Endpoint(fds[0]), Endpoint(fds[1])};
  }

  // TCP: ephemeral loopback listener, connect + accept, listener gone.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLB_CHECK(lfd >= 0, "transport: socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  CLB_CHECK(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "transport: bind(127.0.0.1:0) failed");
  CLB_CHECK(::listen(lfd, 1) == 0, "transport: listen failed");
  socklen_t alen = sizeof(addr);
  CLB_CHECK(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0,
            "transport: getsockname failed");

  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLB_CHECK(cfd >= 0, "transport: socket(AF_INET) failed");
  CLB_CHECK(
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "transport: connect(127.0.0.1) failed");
  const int afd = ::accept(lfd, nullptr, nullptr);
  CLB_CHECK(afd >= 0, "transport: accept failed");
  ::close(lfd);

  const int one = 1;
  (void)setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)setsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  tune_socket(cfd);
  tune_socket(afd);
  return {Endpoint(cfd), Endpoint(afd)};
}

}  // namespace clb::transport
