// Unit tests for the cross-process transport's wire layer: the length-
// prefixed frame codec (truncation, CRC, magic, version, sequence
// violations), the payload Writer/Reader codecs, and a live Endpoint pair
// ping over both socket kinds. The end-to-end lockstep runs live in
// transport_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "transport/endpoint.hpp"
#include "transport/frame.hpp"
#include "transport/shard_engine.hpp"
#include "transport/wire.hpp"

namespace {

using namespace clb;
using namespace clb::transport;

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// ---------------------------------------------------------------------------
// net::wire primitives
// ---------------------------------------------------------------------------

TEST(NetWire, PutGetRoundTrip) {
  std::vector<std::uint8_t> buf;
  net::wire::put_u16(buf, 0xBEEF);
  net::wire::put_u32(buf, 0xDEADBEEFu);
  net::wire::put_u64(buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 14u);
  EXPECT_EQ(net::wire::get_u16(buf.data()), 0xBEEF);
  EXPECT_EQ(net::wire::get_u32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(net::wire::get_u64(buf.data() + 6), 0x0123456789ABCDEFull);
  // Little-endian on the wire, byte for byte.
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
}

TEST(NetWire, Crc32KnownVectorAndChaining) {
  // The canonical CRC-32 ("check" vector): crc32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  EXPECT_EQ(net::wire::crc32(p, 9), 0xCBF43926u);
  // Chaining must equal one-shot.
  const std::uint32_t part = net::wire::crc32(p, 4);
  EXPECT_EQ(net::wire::crc32(p + 4, 5, part), 0xCBF43926u);
}

TEST(NetWire, SeqKeyRoundTrip) {
  net::SeqKey k;
  k.send_step = 0xAABBCCDDEEFF0011ull;
  k.stage = net::SendStage::kDeliver;
  k.major = 42;
  k.minor = 7;
  std::vector<std::uint8_t> buf;
  net::wire::put_seq_key(buf, k);
  ASSERT_EQ(buf.size(), net::wire::kSeqKeyWireSize);
  const net::SeqKey back = net::wire::get_seq_key(buf.data());
  EXPECT_EQ(back.send_step, k.send_step);
  EXPECT_EQ(back.stage, k.stage);
  EXPECT_EQ(back.major, k.major);
  EXPECT_EQ(back.minor, k.minor);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> payload = bytes({1, 2, 3, 4, 5});
  const auto wire = encode_frame(FrameType::kBatch, 1, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());
  const DecodeResult r = decode_frame(wire.data(), wire.size());
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.consumed, wire.size());
  EXPECT_EQ(r.frame.type, FrameType::kBatch);
  EXPECT_EQ(r.frame.seq, 1u);
  EXPECT_EQ(r.frame.payload, payload);
}

TEST(FrameCodec, EmptyPayload) {
  const auto wire = encode_frame(FrameType::kDone, 9, nullptr, 0);
  const DecodeResult r = decode_frame(wire.data(), wire.size());
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_TRUE(r.frame.payload.empty());
  EXPECT_EQ(r.frame.seq, 9u);
}

TEST(FrameCodec, TruncatedFrameNeedsMore) {
  const auto wire = encode_frame(FrameType::kState, 1, bytes({7, 8, 9}));
  // Every strict prefix is incomplete, not an error.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const DecodeResult r = decode_frame(wire.data(), cut);
    EXPECT_EQ(r.status, DecodeStatus::kNeedMore) << "cut=" << cut;
  }
}

TEST(FrameCodec, BadMagicConvicted) {
  auto wire = encode_frame(FrameType::kRun, 1, bytes({1}));
  wire[0] ^= 0xFF;
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadMagic);
}

TEST(FrameCodec, BadVersionConvicted) {
  // The next version, version 5 (the coordinator's barrier frames, blobs
  // outside kBatch), version 4 (value-keyed wall-clock histograms in
  // kState), version 3 (a `c` field in every batch record and a
  // deterministic byte in kConfig), version 2 (a u64 histogram pair count
  // in kState) and version 1 (per-message envelopes, before the task-lane
  // record): a peer built from any of them cannot be decoded.
  static_assert(kWireVersion == 6);
  for (const std::uint8_t v :
       {std::uint8_t{kWireVersion + 1}, std::uint8_t{5}, std::uint8_t{4},
        std::uint8_t{3}, std::uint8_t{2}, std::uint8_t{1}}) {
    auto wire = encode_frame(FrameType::kRun, 1, bytes({1}));
    wire[4] = v;
    EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
              DecodeStatus::kBadVersion)
        << "version " << int{v};
  }
}

TEST(FrameCodec, CorruptPayloadFailsCrc) {
  auto wire = encode_frame(FrameType::kBatch, 3, bytes({10, 20, 30, 40}));
  wire[kFrameHeaderSize + 2] ^= 0x01;  // flip one payload bit
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadCrc);
}

TEST(FrameCodec, CorruptHeaderFailsCrc) {
  auto wire = encode_frame(FrameType::kBatch, 3, bytes({10, 20}));
  wire[8] ^= 0x01;  // flip a seq bit: header is covered by the CRC too
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadCrc);
}

TEST(FrameCodec, OversizedLengthConvicted) {
  auto wire = encode_frame(FrameType::kBatch, 1, bytes({1}));
  // Forge a giant length field; must be rejected before any allocation.
  const std::uint32_t huge = kMaxFramePayload + 1;
  wire[16] = static_cast<std::uint8_t>(huge);
  wire[17] = static_cast<std::uint8_t>(huge >> 8);
  wire[18] = static_cast<std::uint8_t>(huge >> 16);
  wire[19] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kTooLong);
}

TEST(FrameReaderTest, ReassemblesSplitFeeds) {
  FrameReader reader;
  const auto w1 = encode_frame(FrameType::kRun, 1, bytes({1, 2}));
  const auto w2 = encode_frame(FrameType::kState, 2, bytes({3, 4, 5}));
  std::vector<std::uint8_t> stream = w1;
  stream.insert(stream.end(), w2.begin(), w2.end());

  Frame f;
  // Drip-feed one byte at a time; frames must pop out exactly at the seams.
  std::size_t got = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(&stream[i], 1);
    while (reader.next(f) == DecodeStatus::kOk) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(f.type, FrameType::kRun);
        EXPECT_EQ(f.payload, bytes({1, 2}));
      } else {
        EXPECT_EQ(f.type, FrameType::kState);
        EXPECT_EQ(f.payload, bytes({3, 4, 5}));
      }
    }
  }
  EXPECT_EQ(got, 2u);
  EXPECT_EQ(reader.frames_decoded(), 2u);
}

TEST(FrameReaderTest, DuplicateSequenceConvicted) {
  FrameReader reader;
  const auto w1 = encode_frame(FrameType::kBatch, 1, bytes({1}));
  reader.feed(w1.data(), w1.size());
  Frame f;
  ASSERT_EQ(reader.next(f), DecodeStatus::kOk);
  // Replay the same frame: seq 1 again is a duplicate, a poisoned stream.
  reader.feed(w1.data(), w1.size());
  EXPECT_EQ(reader.next(f), kDupSeq);
  EXPECT_NE(reader.error().find("duplicate"), std::string::npos)
      << reader.error();
  // Poisoned: further reads stay failed.
  EXPECT_NE(reader.next(f), DecodeStatus::kOk);
}

TEST(FrameReaderTest, SequenceGapConvicted) {
  FrameReader reader;
  const auto w1 = encode_frame(FrameType::kBatch, 1, bytes({1}));
  const auto w3 = encode_frame(FrameType::kBatch, 3, bytes({3}));
  reader.feed(w1.data(), w1.size());
  Frame f;
  ASSERT_EQ(reader.next(f), DecodeStatus::kOk);
  reader.feed(w3.data(), w3.size());  // seq 2 went missing
  EXPECT_EQ(reader.next(f), kGapSeq);
  EXPECT_NE(reader.error().find("gap"), std::string::npos) << reader.error();
}

TEST(FrameReaderTest, FirstFrameMustBeSeqOne) {
  FrameReader reader;
  const auto w2 = encode_frame(FrameType::kBatch, 2, bytes({1}));
  reader.feed(w2.data(), w2.size());
  Frame f;
  EXPECT_EQ(reader.next(f), kGapSeq);
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

rt::Msg msg(rt::MsgKind kind, std::uint64_t key, std::uint32_t a,
            std::uint32_t b) {
  rt::Msg m;
  m.kind = kind;
  m.key = key;
  m.a = a;
  m.b = b;
  return m;
}

void expect_same(const rt::Msg& got, const rt::Msg& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
}

// One kBatch's worth of records, as SocketComm writes them: instant
// messages without payload, payload messages (their tasks land in the
// decoded batch's task lane, spans rebased) and latency envelopes (the
// kind byte's envelope bit, then from/to/due/seq), interleaved.
TEST(PayloadCodec, MsgRoundTrip) {
  const rt::Msg query =
      msg(rt::MsgKind::kQuery, 0x1234567890ABCDEFull, 5, 6);
  const rt::Msg transfer = msg(rt::MsgKind::kTransfer, 17, 17, 91);
  const rt::RtTask tasks[] = {{sim::Task{12, 17, 1}, 400},
                              {sim::Task{13, 18, 2}, 500}};
  const rt::Msg scatter = msg(rt::MsgKind::kScatter, (9ull << 32) | 4, 9, 2);
  const rt::RtTask thrown{sim::Task{7, 9, 1}, 70};
  rt::Envelope env;
  env.msg = msg(rt::MsgKind::kAccept, 0, 3, 1);
  env.from = 44;
  env.to = 45;
  env.due = 0xABCDEF012345ull;
  env.seq = net::SeqKey{9, net::SendStage::kEvaluate, 0x1122334455ull, 7};

  Writer w;
  serialize_msg(w, query);
  serialize_msg(w, transfer, tasks);
  serialize_msg(w, env);
  serialize_msg(w, scatter, {&thrown, 1});
  // The decoder appends behind whatever the batch already holds.
  rt::Batch out;
  out.tasks.push_back(rt::RtTask{sim::Task{1, 1, 1}, 1});
  Reader r(w.data());
  for (int k = 0; k < 4; ++k) deserialize_msg(r, out);
  EXPECT_TRUE(r.exhausted());

  ASSERT_EQ(out.msgs.size(), 3u);
  expect_same(out.msgs[0], query);
  EXPECT_EQ(out.msgs[0].task_count, 0u);
  expect_same(out.msgs[1], transfer);
  const auto got = out.payload(out.msgs[1]);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(out.msgs[1].task_offset, 1u);
  EXPECT_EQ(got[0].task.birth_step, 12u);
  EXPECT_EQ(got[0].task.origin, 17u);
  EXPECT_EQ(got[0].birth_us, 400u);
  EXPECT_EQ(got[1].task.weight, 2u);
  EXPECT_EQ(got[1].birth_us, 500u);
  expect_same(out.msgs[2], scatter);
  ASSERT_EQ(out.payload(out.msgs[2]).size(), 1u);
  EXPECT_EQ(out.payload(out.msgs[2])[0].task.origin, 9u);
  EXPECT_EQ(out.msgs[2].task_offset, 3u);

  ASSERT_EQ(out.envs.size(), 1u);
  const rt::Envelope& e = out.envs[0];
  expect_same(e.msg, env.msg);
  EXPECT_EQ(e.from, env.from);
  EXPECT_EQ(e.to, env.to);
  EXPECT_EQ(e.due, env.due);
  EXPECT_EQ(e.seq, env.seq);

  // Only latency records pay for the envelope: a payload-free instant
  // record is 21 bytes, an envelope record 21 + 16 + SeqKey.
  Writer one, enveloped;
  serialize_msg(one, query);
  serialize_msg(enveloped, env);
  EXPECT_EQ(one.size(), 21u);
  EXPECT_EQ(enveloped.size(), 21u + 16u + net::wire::kSeqKeyWireSize);
}

TEST(PayloadCodec, ShardRunConfigRoundTrip) {
  ShardRunConfig c;
  c.n = 192;
  c.seed = 3;
  c.workers = 4;
  c.index = 2;
  c.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;
  c.params = core::PhaseParams::from_n(192, f);
  c.game.max_rounds = 9;
  c.spin_work = 5;
  c.track_sojourn = true;
  c.mutation = sim::MutationKind::kFrameCorrupt;
  c.mutation_ordinal = 7;
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_rate = 6;
  c.model = ModelSpec::bursty(bc);

  Writer w;
  c.serialize(w);
  Reader r(w.data());
  const ShardRunConfig back = ShardRunConfig::deserialize(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.n, c.n);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.workers, c.workers);
  EXPECT_EQ(back.index, c.index);
  EXPECT_EQ(back.policy, c.policy);
  EXPECT_EQ(back.params.T, c.params.T);
  EXPECT_EQ(back.params.phase_len, c.params.phase_len);
  EXPECT_EQ(back.params.heavy_threshold, c.params.heavy_threshold);
  EXPECT_EQ(back.game.a, c.game.a);
  EXPECT_EQ(back.game.max_rounds, c.game.max_rounds);
  EXPECT_EQ(back.spin_work, c.spin_work);
  EXPECT_EQ(back.track_sojourn, c.track_sojourn);
  EXPECT_EQ(back.mutation, c.mutation);
  EXPECT_EQ(back.mutation_ordinal, c.mutation_ordinal);
  EXPECT_EQ(back.model.kind, ModelSpec::Kind::kBurst);
  EXPECT_EQ(back.model.burst.period, 16u);
  EXPECT_EQ(back.model.burst.burst_rate, 6u);
}

// Enums arriving on the wire are range-checked like ModelSpec::kind: the
// one byte where two encodings differ (a message kind, an rt policy, a
// mutation kind) patched to 0xFF makes decoding abort. So do a kind byte
// with an unknown bit and a message whose payload count overruns the
// frame.
TEST(PayloadCodecDeathTest, OutOfRangeEnumsRefused) {
  const auto patched = [](const Writer& a, const Writer& b) {
    std::vector<std::uint8_t> out = a.data();
    *std::mismatch(out.begin(), out.end(), b.data().begin()).first = 0xFF;
    return out;
  };
  rt::Msg m, query;
  m.kind = rt::MsgKind::kAccept;
  Writer wm, wq;
  serialize_msg(wm, m);
  serialize_msg(wq, query);
  const std::vector<std::uint8_t> bad_msg = patched(wm, wq);
  rt::Batch sink;
  Reader rm(bad_msg);
  EXPECT_DEATH(deserialize_msg(rm, sink), "unknown message kind on the wire");
  // A kind byte with a bit set that is neither a kind nor the envelope bit.
  for (const std::uint8_t bit : {0x40, 0x20, 0x10}) {
    std::vector<std::uint8_t> odd = wm.data();
    odd[0] |= bit;
    Reader ro(odd);
    EXPECT_DEATH(deserialize_msg(ro, sink), "unknown message kind on the wire")
        << "bit " << int{bit};
  }
  // A payload count that runs past the frame: two tasks announced, one
  // present. The count field sits after kind, key, a and b.
  const rt::RtTask two[] = {{sim::Task{1, 2, 1}, 3}, {sim::Task{4, 5, 1}, 6}};
  Writer wt;
  serialize_msg(wt, msg(rt::MsgKind::kTransfer, 1, 1, 2), two);
  std::vector<std::uint8_t> short_payload = wt.data();
  short_payload.resize(short_payload.size() - kTaskWireSize);
  Reader rs(short_payload);
  EXPECT_DEATH(deserialize_msg(rs, sink),
               "message payload count runs past the frame");
  std::vector<std::uint8_t> huge_count = wt.data();
  huge_count[17] = 0xFF;
  huge_count[18] = 0xFF;
  huge_count[19] = 0xFF;
  huge_count[20] = 0xFF;
  Reader rh(huge_count);
  EXPECT_DEATH(deserialize_msg(rh, sink),
               "message payload count runs past the frame");
  // The envelope bit on a payload record.
  std::vector<std::uint8_t> enveloped_payload = wt.data();
  enveloped_payload[0] |= kEnvelopeBit;
  Reader re(enveloped_payload);
  EXPECT_DEATH(deserialize_msg(re, sink),
               "an envelope record carries a payload");

  ShardRunConfig c, policy, mutation;
  policy.policy = rt::RtPolicy::kNone;
  mutation.mutation = sim::MutationKind::kMailboxDrop;
  Writer wc, wp, wmu;
  c.serialize(wc);
  policy.serialize(wp);
  mutation.serialize(wmu);
  const std::vector<std::uint8_t> bad_policy = patched(wc, wp);
  const std::vector<std::uint8_t> bad_mutation = patched(wc, wmu);
  Reader rp(bad_policy), rmu(bad_mutation);
  EXPECT_DEATH((void)ShardRunConfig::deserialize(rp),
               "unknown rt policy on the wire");
  EXPECT_DEATH((void)ShardRunConfig::deserialize(rmu),
               "unknown mutation kind on the wire");
}

/// Shard 0 of a two-shard SocketComm over one UDS link; the test plays
/// shard 1 on `peer`.
struct PeerLink {
  PeerLink() {
    ShardRunConfig cfg;
    cfg.n = 4;
    cfg.workers = 2;
    auto [mine, theirs] = make_stream_pair(WireKind::kUds);
    peer = std::move(theirs);
    std::vector<Endpoint> links(2);
    links[1] = std::move(mine);
    comm = std::make_unique<SocketComm>(cfg, part, std::move(links), wire);
  }
  rt::Partition part{4, 2};
  obs::WireStats wire;
  Endpoint peer;
  std::unique_ptr<SocketComm> comm;
};

/// A kBatch payload for exchange `ordinal`: a blob count, no messages.
std::vector<std::uint8_t> batch_frame(std::uint64_t ordinal,
                                      std::uint32_t blob_count) {
  Writer w;
  w.u64(ordinal);
  w.u32(blob_count);
  w.u32(0);
  return w.take();
}

// A record count that the rest of the payload cannot hold is refused,
// naming the field, before anything is sized by it: a corrupt u32 count
// would otherwise ask for up to 2^32 records. One site each for the shard
// state's per-processor and ledger lists and a peer kBatch's blob.
TEST(PayloadCodecDeathTest, OversizedCountsRefusedByName) {
  // The first byte where `more` (one record more) encodes differently is
  // the low byte of that list's u32 count; all four set is 2^32 - 1.
  const auto inflated = [](const ShardState& base, const ShardState& more) {
    Writer wb, wm;
    base.serialize(wb);
    more.serialize(wm);
    std::vector<std::uint8_t> out = wb.data();
    const auto at =
        std::mismatch(out.begin(), out.end(), wm.data().begin()).first;
    std::fill(at, at + 4, std::uint8_t{0xFF});
    return out;
  };
  const ShardState base;
  ShardState one_proc, one_entry;
  one_proc.procs.resize(1);
  one_entry.ledger.push_back(rt::LedgerEntry{1, 2, 3, 4});
  const std::vector<std::uint8_t> procs = inflated(base, one_proc);
  const std::vector<std::uint8_t> ledger = inflated(base, one_entry);
  Reader rp(procs), rl(ledger);
  EXPECT_DEATH((void)ShardState::deserialize(rp, {}),
               "procs count runs past the frame");
  EXPECT_DEATH((void)ShardState::deserialize(rl, {}),
               "ledger count runs past the frame");

  // A peer's kBatch, met inside an exchange: shard 0 of a two-shard comm
  // whose link from shard 1 already holds the forged frame.
  PeerLink link;
  link.peer.send_frame(FrameType::kBatch, batch_frame(1, 0xFFFFFFFFu));
  EXPECT_DEATH((void)link.comm->exchange({}),
               "kBatch blob count runs past the frame");
}

// A peer on another superstep schedule is convicted, naming both shards,
// never waited for: a frame carrying another exchange ordinal, and a kDone
// (the peer ended its run) met while an exchange frame is still due.
TEST(SocketCommDeathTest, ScheduleDivergenceNamesBothShards) {
  PeerLink ahead;
  ahead.peer.send_frame(FrameType::kBatch, batch_frame(7, 0));
  EXPECT_DEATH((void)ahead.comm->exchange({}),
               "divergence between shard 0 and shard 1: shard 0 is at "
               "exchange 1, shard 1 sent exchange 7");

  PeerLink early;
  Writer done;
  done.u64(0);
  early.peer.send_frame(FrameType::kDone, done.data());
  EXPECT_DEATH((void)early.comm->exchange({}),
               "divergence between shard 0 and shard 1: shard 1 ended its run "
               "after 0 exchanges while shard 0 waits for exchange 1");

  // The kDone of the last run carries another count than shard 0's own.
  PeerLink counted;
  counted.peer.send_frame(FrameType::kBatch, batch_frame(1, 0));
  (void)counted.comm->exchange({});
  counted.comm->end_run();
  done = Writer();
  done.u64(2);
  counted.peer.send_frame(FrameType::kDone, done.data());
  EXPECT_DEATH((void)counted.comm->exchange({}),
               "divergence between shard 0 and shard 1: shard 0 ended its "
               "last run after 1 exchanges, shard 1 after 2");
}

TEST(PayloadCodecDeathTest, HistogramValuesRefusedByName) {
  // The first byte where two states encode differently is the low byte of
  // the histogram value or bucket index they differ in; `patched`
  // overwrites the byte `offset` past it.
  const auto patched = [](const ShardState& a, const ShardState& b,
                          std::size_t offset, std::uint8_t byte) {
    Writer wa, wb;
    a.serialize(wa);
    b.serialize(wb);
    std::vector<std::uint8_t> out = wa.data();
    const auto at =
        std::mismatch(out.begin(), out.end(), wb.data().begin()).first;
    *(at + static_cast<std::ptrdiff_t>(offset)) = byte;
    return out;
  };
  const HistBounds bound{100, 1000};

  // sojourn_us: bucket 3 becomes 3 + 8 * 256, past the last bucket.
  ShardState three, four;
  three.sojourn_us.add(3);
  four.sojourn_us.add(4);
  const std::vector<std::uint8_t> past = patched(three, four, 1, 8);
  Reader rp(past);
  EXPECT_DEATH((void)ShardState::deserialize(rp, bound),
               "sojourn_us bucket index past the last");

  ShardState two, other;
  two.sojourn_us.add(3);
  two.sojourn_us.add(5);
  other.sojourn_us.add(3);
  other.sojourn_us.add(6);
  const std::vector<std::uint8_t> repeated = patched(two, other, 0, 3);
  Reader rr(repeated);
  EXPECT_DEATH((void)ShardState::deserialize(rr, bound),
               "sojourn_us buckets not strictly ascending");

  ShardState steps_two, steps_other;
  steps_two.sojourn_steps.add(3);
  steps_two.sojourn_steps.add(5);
  steps_other.sojourn_steps.add(3);
  steps_other.sojourn_steps.add(6);
  const std::vector<std::uint8_t> steps_repeated =
      patched(steps_two, steps_other, 0, 3);
  Reader rsr(steps_repeated);
  EXPECT_DEATH((void)ShardState::deserialize(rsr, bound),
               "sojourn_steps values not strictly ascending");

  // A bucket is judged by its lowest value: 1008's bucket is [1008, 1023].
  ShardState late;
  late.sojourn_steps.add(101);
  late.wire.barrier_rtt_us.add(1008);
  Writer wl;
  late.serialize(wl);
  Reader rs(wl.data());
  EXPECT_DEATH((void)ShardState::deserialize(rs, bound),
               "sojourn_steps value above its bound");
  Reader rb(wl.data());
  EXPECT_DEATH((void)ShardState::deserialize(rb, {101, 1007}),
               "barrier_rtt_us bucket above its bound");
  Reader ra(wl.data());
  const ShardState at_bound = ShardState::deserialize(ra, {101, 1008});
  EXPECT_EQ(at_bound.sojourn_steps.count_at(101), 1u);
  EXPECT_EQ(at_bound.wire.barrier_rtt_us.count(), 1u);
  EXPECT_EQ(at_bound.wire.barrier_rtt_us.max(), 1008u);
}

TEST(PayloadCodec, ShardStateRoundTrip) {
  ShardState s;
  s.begin = 10;
  s.end = 12;
  s.procs.resize(2);
  s.procs[0].queue.push_back(rt::RtTask{sim::Task{1, 10, 1}, 0});
  s.procs[0].generated = 5;
  s.procs[1].consumed = 3;
  s.procs[1].tasks_received = 2;
  s.msg.queries = 11;
  s.msg.tasks_moved = 4;
  s.clamped = 1;
  s.deposited = 2;
  s.ledger.push_back(rt::LedgerEntry{8, 10, 11, 4});
  s.sojourn_steps.add(3, 2);
  s.sojourn_steps.add(900, 1);  // sparse far tail
  s.running_max = 77;
  rt::RtPhaseSummary ps;
  ps.phase_index = 1;
  ps.matched = 2;
  ps.heavy_procs = {10, 11};
  ps.completed = true;
  s.phases.push_back(ps);
  s.wire.bytes_sent = 123;
  s.wire.barriers = 9;
  s.sojourn_us.add(7, 2);
  s.sojourn_us.add(1000);  // bucket [992, 1007]
  s.wire.barrier_rtt_us.add(15, 3);
  s.wire.barrier_rtt_us.add(301);

  Writer w;
  s.serialize(w);
  Reader r(w.data());
  const ShardState back = ShardState::deserialize(r, {900, 1000});
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.begin, 10u);
  ASSERT_EQ(back.procs.size(), 2u);
  ASSERT_EQ(back.procs[0].queue.size(), 1u);
  EXPECT_EQ(back.procs[0].queue[0].task.origin, 10u);
  EXPECT_EQ(back.procs[0].generated, 5u);
  EXPECT_EQ(back.procs[1].consumed, 3u);
  EXPECT_EQ(back.msg.queries, 11u);
  EXPECT_EQ(back.clamped, 1u);
  EXPECT_EQ(back.deposited, 2u);
  ASSERT_EQ(back.ledger.size(), 1u);
  EXPECT_EQ(back.ledger[0].count, 4u);
  EXPECT_EQ(back.sojourn_steps.total(), 3u);
  EXPECT_EQ(back.sojourn_steps.count_at(900), 1u);
  EXPECT_EQ(back.running_max, 77u);
  ASSERT_EQ(back.phases.size(), 1u);
  EXPECT_EQ(back.phases[0].matched, 2u);
  EXPECT_EQ(back.phases[0].heavy_procs, (std::vector<std::uint32_t>{10, 11}));
  EXPECT_EQ(back.wire.bytes_sent, 123u);
  for (const auto& [got, want] :
       {std::pair{&back.sojourn_us, &s.sojourn_us},
        std::pair{&back.wire.barrier_rtt_us, &s.wire.barrier_rtt_us}}) {
    EXPECT_TRUE(std::ranges::equal(got->buckets(), want->buckets()));
    EXPECT_EQ(got->count(), want->count());
    EXPECT_EQ(got->sum(), want->sum());
    EXPECT_EQ(got->max(), want->max());
  }
  EXPECT_EQ(back.sojourn_us.sum(), 1014u);
  EXPECT_EQ(back.wire.barrier_rtt_us.max(), 301u);
}

// ---------------------------------------------------------------------------
// Endpoint pairs (live sockets)
// ---------------------------------------------------------------------------

class EndpointPair : public ::testing::TestWithParam<WireKind> {};

TEST_P(EndpointPair, PingPongWithSequenceAndAccounting) {
  auto [a, b] = make_stream_pair(GetParam());
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  const auto ping = bytes({1, 2, 3});
  a.send_frame(FrameType::kRun, ping);
  a.send_frame(FrameType::kCollect, nullptr, 0);

  Frame f1 = b.recv_frame();
  EXPECT_EQ(f1.type, FrameType::kRun);
  EXPECT_EQ(f1.seq, 1u);
  EXPECT_EQ(f1.payload, ping);
  Frame f2 = b.recv_frame();
  EXPECT_EQ(f2.type, FrameType::kCollect);
  EXPECT_EQ(f2.seq, 2u);

  b.send_frame(FrameType::kDone, nullptr, 0);
  Frame f3 = a.recv_frame();
  EXPECT_EQ(f3.type, FrameType::kDone);

  EXPECT_EQ(a.frames_sent(), 2u);
  EXPECT_EQ(b.frames_received(), 2u);
  EXPECT_EQ(a.frames_received(), 1u);
  EXPECT_EQ(a.bytes_sent(), 2 * kFrameHeaderSize + ping.size());
  EXPECT_EQ(b.bytes_received(), a.bytes_sent());

  obs::WireStats ws;
  a.account_into(ws);
  b.account_into(ws);
  EXPECT_EQ(ws.frames_sent, 3u);
  EXPECT_EQ(ws.frames_received, 3u);
}

INSTANTIATE_TEST_SUITE_P(Wires, EndpointPair,
                         ::testing::Values(WireKind::kUds, WireKind::kTcp),
                         [](const auto& param_info) {
                           return param_info.param == WireKind::kUds ? "uds"
                                                                     : "tcp";
                         });

}  // namespace
