#include "transport/wire.hpp"

#include <string>

#include "models/single.hpp"

namespace clb::transport {

std::uint32_t Reader::count(std::size_t min_record_bytes, const char* field) {
  const std::uint32_t n = u32();
  if (n > remaining() / min_record_bytes) {
    const std::string msg = std::string(field) + " count runs past the frame";
    util::check_failed("count <= remaining() / min_record_bytes", __FILE__,
                       __LINE__, msg.c_str());
  }
  return n;
}

std::unique_ptr<sim::LoadModel> ModelSpec::make(std::uint64_t n) const {
  switch (kind) {
    case Kind::kSingle:
      return std::make_unique<models::SingleModel>(p, eps);
    case Kind::kBurst:
      return std::make_unique<models::BurstModel>(burst, n);
  }
  CLB_CHECK(false, "unknown model spec kind");
  return nullptr;
}

void ModelSpec::serialize(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.f64(p);
  w.f64(eps);
  w.f64(burst.p_base);
  w.f64(burst.p_consume);
  w.u64(burst.period);
  w.u64(burst.burst_len);
  w.f64(burst.hot_fraction);
  w.u32(burst.burst_rate);
  w.u8(burst.rotate_hotspot ? 1 : 0);
}

ModelSpec ModelSpec::deserialize(Reader& r) {
  ModelSpec s;
  s.kind = static_cast<Kind>(r.u8());
  CLB_CHECK(s.kind == Kind::kSingle || s.kind == Kind::kBurst,
            "unknown model spec kind on the wire");
  s.p = r.f64();
  s.eps = r.f64();
  s.burst.p_base = r.f64();
  s.burst.p_consume = r.f64();
  s.burst.period = r.u64();
  s.burst.burst_len = r.u64();
  s.burst.hot_fraction = r.f64();
  s.burst.burst_rate = r.u32();
  s.burst.rotate_hotspot = r.u8() != 0;
  return s;
}

void serialize_task(Writer& w, const rt::RtTask& t) {
  w.u32(t.task.birth_step);
  w.u32(t.task.origin);
  w.u32(t.task.weight);
  w.u32(t.birth_us);
}

rt::RtTask deserialize_task(Reader& r) {
  rt::RtTask t;
  t.task.birth_step = r.u32();
  t.task.origin = r.u32();
  t.task.weight = r.u32();
  t.birth_us = r.u32();
  return t;
}

namespace {

void put_record(Writer& w, std::uint8_t kind_byte, const rt::Msg& m,
                std::span<const rt::RtTask> tasks) {
  w.u8(kind_byte);
  w.u64(m.key);
  w.u32(m.a);
  w.u32(m.b);
  w.u32(static_cast<std::uint32_t>(tasks.size()));
  for (const rt::RtTask& t : tasks) serialize_task(w, t);
}

}  // namespace

void serialize_msg(Writer& w, const rt::Msg& m,
                   std::span<const rt::RtTask> tasks) {
  put_record(w, static_cast<std::uint8_t>(m.kind), m, tasks);
}

void serialize_msg(Writer& w, const rt::Envelope& e) {
  put_record(w, static_cast<std::uint8_t>(
                    static_cast<std::uint8_t>(e.msg.kind) | kEnvelopeBit),
             e.msg, {});
  w.u32(e.from);
  w.u32(e.to);
  w.u64(e.due);
  w.seq_key(e.seq);
}

void deserialize_msg(Reader& r, rt::Batch& out) {
  const std::uint8_t kind_byte = r.u8();
  rt::Msg m;
  m.kind = static_cast<rt::MsgKind>(kind_byte & ~kEnvelopeBit);
  CLB_CHECK(m.kind <= rt::MsgKind::kRehome, "unknown message kind on the wire");
  m.key = r.u64();
  m.a = r.u32();
  m.b = r.u32();
  const std::uint32_t count = r.count(kTaskWireSize, "message payload");
  if ((kind_byte & kEnvelopeBit) != 0) {
    CLB_CHECK(count == 0, "an envelope record carries a payload");
    rt::Envelope& e = out.envs.emplace_back();
    e.msg = m;
    e.from = r.u32();
    e.to = r.u32();
    e.due = r.u64();
    e.seq = r.seq_key();
    return;
  }
  m.task_offset = static_cast<std::uint32_t>(out.tasks.size());
  m.task_count = count;
  for (std::uint32_t i = 0; i < count; ++i) {
    out.tasks.push_back(deserialize_task(r));
  }
  out.msgs.push_back(m);
}

void serialize_params(Writer& w, const core::PhaseParams& p) {
  w.u64(p.n);
  w.f64(p.T_real);
  w.u64(p.T);
  w.u64(p.phase_len);
  w.u64(p.heavy_threshold);
  w.u64(p.light_threshold);
  w.u32(p.transfer_amount);
  w.u32(p.tree_depth);
}

core::PhaseParams deserialize_params(Reader& r) {
  core::PhaseParams p;
  p.n = r.u64();
  p.T_real = r.f64();
  p.T = r.u64();
  p.phase_len = r.u64();
  p.heavy_threshold = r.u64();
  p.light_threshold = r.u64();
  p.transfer_amount = r.u32();
  p.tree_depth = r.u32();
  return p;
}

void serialize_game(Writer& w, const collision::CollisionConfig& g) {
  w.u32(g.a);
  w.u32(g.b);
  w.u32(g.c);
  w.u32(g.max_rounds);
}

collision::CollisionConfig deserialize_game(Reader& r) {
  collision::CollisionConfig g;
  g.a = r.u32();
  g.b = r.u32();
  g.c = r.u32();
  g.max_rounds = r.u32();
  return g;
}

}  // namespace clb::transport
