#include "net/wire.h"

#include <cstring>

#include "common/error.h"

namespace p2g::net {
namespace {

using dist::Reader;
using dist::Writer;

constexpr size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

void require_exhausted(const Reader& r, const char* what) {
  if (!r.exhausted()) {
    throw_error(ErrorKind::kProtocol,
                std::string("trailing bytes after ") + what);
  }
}

}  // namespace

std::vector<uint8_t> NetEnvelope::encode() const {
  Writer w;
  w.str(to);
  w.u8(static_cast<uint8_t>(msg.type));
  w.str(msg.from);
  w.i64(static_cast<int64_t>(msg.seq));
  w.u32(msg.attempt);
  w.i64(static_cast<int64_t>(msg.trace.trace_id));
  w.i64(static_cast<int64_t>(msg.trace.span_id));
  w.blob(msg.payload.data(), msg.payload.size());
  return w.take();
}

NetEnvelope NetEnvelope::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  NetEnvelope e;
  e.to = r.str();
  e.msg.type = static_cast<dist::MessageType>(r.u8());
  e.msg.from = r.str();
  e.msg.seq = static_cast<uint64_t>(r.i64());
  e.msg.attempt = r.u32();
  e.msg.trace.trace_id = static_cast<uint64_t>(r.i64());
  e.msg.trace.span_id = static_cast<uint64_t>(r.i64());
  e.msg.payload = r.blob();
  require_exhausted(r, "NetEnvelope");
  return e;
}

std::vector<uint8_t> HelloMsg::encode() const {
  Writer w;
  w.str(name);
  w.i64(pid);
  return w.take();
}

HelloMsg HelloMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  HelloMsg m;
  m.name = r.str();
  m.pid = r.i64();
  require_exhausted(r, "HelloMsg");
  return m;
}

std::vector<uint8_t> AssignMsg::encode() const {
  Writer w;
  w.str(source);
  w.u32(static_cast<uint32_t>(kernels.size()));
  for (const auto& [kernel, owner] : kernels) {
    w.str(kernel);
    w.str(owner);
  }
  w.u32(static_cast<uint32_t>(capture_fields.size()));
  for (const auto& field : capture_fields) w.str(field);
  w.u8(max_age.has_value());
  w.i64(max_age.value_or(0));
  w.u8(metrics);
  return w.take();
}

AssignMsg AssignMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  AssignMsg m;
  m.source = r.str();
  const uint32_t nk = r.count(8);  // two length-prefixed strings minimum
  m.kernels.reserve(nk);
  for (uint32_t i = 0; i < nk; ++i) {
    std::string kernel = r.str();
    std::string owner = r.str();
    m.kernels.emplace_back(std::move(kernel), std::move(owner));
  }
  const uint32_t nf = r.count(4);
  m.capture_fields.reserve(nf);
  for (uint32_t i = 0; i < nf; ++i) m.capture_fields.push_back(r.str());
  const bool capped = r.u8() != 0;
  const int64_t max_age = r.i64();
  if (capped) m.max_age = max_age;
  m.metrics = r.u8() != 0;
  require_exhausted(r, "AssignMsg");
  return m;
}

std::vector<uint8_t> encode_frame(const NetEnvelope& envelope) {
  const std::vector<uint8_t> body = envelope.encode();
  Writer w;
  w.u32(static_cast<uint32_t>(body.size()));
  std::vector<uint8_t> frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

NetEnvelope decode_frame(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  const uint32_t len = r.u32();
  if (len != r.remaining()) {
    throw_error(ErrorKind::kProtocol, "truncated message");
  }
  return NetEnvelope::decode(
      std::vector<uint8_t>(bytes.begin() + 4, bytes.end()));
}

void FrameReader::feed(const uint8_t* data, size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<NetEnvelope> FrameReader::poll() {
  if (buffer_.size() < 4) return std::nullopt;
  uint32_t len = 0;
  std::memcpy(&len, buffer_.data(), sizeof(len));
  if (len > kMaxFrameBytes) {
    throw_error(ErrorKind::kProtocol, "frame length exceeds 64 MiB cap");
  }
  if (buffer_.size() < 4u + len) return std::nullopt;
  const std::vector<uint8_t> body(buffer_.begin() + 4,
                                  buffer_.begin() + 4 + len);
  buffer_.erase(buffer_.begin(), buffer_.begin() + 4 + len);
  return NetEnvelope::decode(body);
}

}  // namespace p2g::net
