// Length-prefixed frame codec for the cross-process transport.
//
// Every byte that crosses a socket travels inside one frame:
//
//   offset  size  field
//        0     4  magic   "CLBF" (little-endian 0x46424C43)
//        4     1  version (kWireVersion)
//        5     1  type    (FrameType)
//        6     2  channel (reserved, 0)
//        8     8  seq     per-connection stream sequence number, 1-based,
//                         strictly consecutive (net::SeqKey vocabulary:
//                         this is the frame's send_step on the link)
//       16     4  payload length in bytes
//       20     4  CRC-32 over the header (with this field zeroed) + payload
//       24     *  payload
//
// The decoder is incremental (feed partial reads, get frames out) and
// convicts, rather than tolerates, every malformed input: bad magic, bad
// version, bad CRC, oversized payload, and — at the Endpoint layer — a
// duplicate or out-of-order sequence number. A transport that silently
// resynchronised would let exactly the corruption the shadow-fabric
// cross-check exists to catch slip through as "noise".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace clb::transport {

inline constexpr std::uint32_t kFrameMagic = 0x46424C43u;  // "CLBF"
inline constexpr std::uint8_t kWireVersion = 6;
inline constexpr std::size_t kFrameHeaderSize = 24;
/// Safety valve against garbage length fields; generous for any batch the
/// protocol can produce (transfers are T/4 tasks of 16 bytes each).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kConfig = 1,    ///< coordinator -> worker: RtConfig + ModelSpec + seed
  kConfigAck = 2, ///< worker -> coordinator: handshake complete
  kRun = 3,       ///< coordinator -> worker: execute N steps
  kDeposit = 4,   ///< coordinator -> worker: append a task to an owned queue
  kCollect = 5,   ///< coordinator -> worker: ship final state
  kState = 6,     ///< worker -> coordinator: serialized shard state
  kShutdown = 7,  ///< coordinator -> worker: exit cleanly
  kDone = 10,     ///< worker -> coordinator and peers: run command finished
  kBatch = 11,    ///< worker -> worker: one exchange's blob and messages
};

struct Frame {
  FrameType type = FrameType::kBatch;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

enum class DecodeStatus : std::uint8_t {
  kOk,          ///< one frame decoded
  kNeedMore,    ///< buffer holds a prefix of a frame; feed more bytes
  kBadMagic,
  kBadVersion,
  kBadCrc,
  kTooLong,     ///< payload length exceeds kMaxFramePayload
};

[[nodiscard]] const char* decode_status_name(DecodeStatus s);

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  ///< bytes to discard from the front on kOk
  Frame frame;
};

/// Encodes one frame (header + CRC + payload copy).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t seq, const std::uint8_t* payload,
    std::size_t payload_len);

[[nodiscard]] inline std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload) {
  return encode_frame(type, seq, payload.data(), payload.size());
}

/// Attempts to decode one frame from the front of [data, data+len).
[[nodiscard]] DecodeResult decode_frame(const std::uint8_t* data,
                                        std::size_t len);

/// Incremental decoder with sequence checking: feed() bytes as they arrive,
/// next() yields frames. The stream sequence must be exactly last+1 (first
/// frame: 1); anything else is a hard error naming the kind of violation.
class FrameReader {
 public:
  /// Appends raw bytes from the wire.
  void feed(const std::uint8_t* data, std::size_t len);

  /// Decodes the next complete frame into `out`. Returns kOk, kNeedMore, or
  /// a decode error. Sequence violations surface through error() and return
  /// kBadMagic-style hard failure via the dedicated statuses below.
  [[nodiscard]] DecodeStatus next(Frame& out);

  /// Human-readable description of the last hard error ("" when none).
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return last_seq_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
  std::uint64_t last_seq_ = 0;
  std::string error_;
};

/// Sequence-violation statuses the FrameReader reports on top of the raw
/// decode errors. Kept in DecodeStatus's numeric space so one switch covers
/// both layers.
inline constexpr DecodeStatus kDupSeq = static_cast<DecodeStatus>(101);
inline constexpr DecodeStatus kGapSeq = static_cast<DecodeStatus>(102);

}  // namespace clb::transport
