#include "dist/message.h"

namespace p2g::dist {

namespace {

/// Decoders must consume their input exactly: trailing bytes mean the
/// sender and receiver disagree about the wire format, which silently
/// ignoring would turn into downstream corruption.
void require_exhausted(const Reader& r, const char* what) {
  if (!r.exhausted()) {
    throw_error(ErrorKind::kProtocol,
                std::string(what) + ": trailing bytes after message");
  }
}

void encode_region(Writer& w, const nd::Region& region) {
  w.u32(static_cast<uint32_t>(region.rank()));
  for (const nd::Interval& iv : region.intervals()) {
    w.i64(iv.begin);
    w.i64(iv.end);
  }
}

nd::Region decode_region(Reader& r) {
  const uint32_t rank = r.count(2 * sizeof(int64_t));
  std::vector<nd::Interval> intervals(rank);
  for (uint32_t i = 0; i < rank; ++i) {
    intervals[i].begin = r.i64();
    intervals[i].end = r.i64();
  }
  return nd::Region(std::move(intervals));
}

}  // namespace

std::vector<uint8_t> RemoteStore::encode() const {
  Writer w;
  w.u32(static_cast<uint32_t>(field));
  w.i64(age);
  encode_region(w, region);
  w.u32(static_cast<uint32_t>(producer));
  w.u32(store_decl);
  w.u8(whole ? 1 : 0);
  w.blob(payload.data(), payload.size());
  return w.take();
}

RemoteStore RemoteStore::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  RemoteStore out;
  out.field = static_cast<int32_t>(r.u32());
  out.age = r.i64();
  out.region = decode_region(r);
  out.producer = static_cast<int32_t>(r.u32());
  out.store_decl = r.u32();
  out.whole = r.u8() != 0;
  out.payload = r.blob();
  require_exhausted(r, "RemoteStore");
  return out;
}

std::vector<uint8_t> TopologyReport::encode() const {
  Writer w;
  w.str(topology.name);
  w.f64(topology.memory_gb);
  w.u32(static_cast<uint32_t>(topology.units.size()));
  for (const graph::ProcessingUnit& unit : topology.units) {
    w.u8(static_cast<uint8_t>(unit.type));
    w.f64(unit.relative_speed);
  }
  w.u32(static_cast<uint32_t>(topology.buses.size()));
  for (const graph::Link& bus : topology.buses) {
    w.u32(static_cast<uint32_t>(bus.a));
    w.u32(static_cast<uint32_t>(bus.b));
    w.f64(bus.bandwidth_mbps);
    w.f64(bus.latency_us);
  }
  return w.take();
}

TopologyReport TopologyReport::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  TopologyReport out;
  out.topology.name = r.str();
  out.topology.memory_gb = r.f64();
  const uint32_t units = r.count(sizeof(uint8_t) + sizeof(double));
  for (uint32_t i = 0; i < units; ++i) {
    graph::ProcessingUnit unit;
    unit.type = static_cast<graph::ProcessingUnit::Type>(r.u8());
    unit.relative_speed = r.f64();
    out.topology.units.push_back(unit);
  }
  const uint32_t buses = r.count(2 * sizeof(uint32_t) + 2 * sizeof(double));
  for (uint32_t i = 0; i < buses; ++i) {
    graph::Link bus;
    bus.a = r.u32();
    bus.b = r.u32();
    bus.bandwidth_mbps = r.f64();
    bus.latency_us = r.f64();
    out.topology.buses.push_back(bus);
  }
  require_exhausted(r, "TopologyReport");
  return out;
}

std::vector<uint8_t> ProfileReport::encode() const {
  Writer w;
  w.u32(static_cast<uint32_t>(report.kernels.size()));
  for (const KernelStats& k : report.kernels) {
    w.str(k.name);
    w.i64(k.dispatches);
    w.i64(k.instances);
    w.i64(k.dispatch_ns);
    w.i64(k.kernel_ns);
  }
  return w.take();
}

ProfileReport ProfileReport::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  ProfileReport out;
  const uint32_t kernels = r.count(sizeof(uint32_t) + 4 * sizeof(int64_t));
  for (uint32_t i = 0; i < kernels; ++i) {
    KernelStats k;
    k.name = r.str();
    k.dispatches = r.i64();
    k.instances = r.i64();
    k.dispatch_ns = r.i64();
    k.kernel_ns = r.i64();
    out.report.kernels.push_back(std::move(k));
  }
  require_exhausted(r, "ProfileReport");
  return out;
}

std::vector<uint8_t> MetricsReport::encode() const {
  Writer w;
  w.str(node);
  w.u32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const obs::CounterValue& c : snapshot.counters) {
    w.str(c.name);
    w.i64(c.value);
  }
  w.u32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    w.str(h.name);
    w.i64(h.count);
    w.i64(h.sum);
    w.i64(h.min);
    w.i64(h.max);
    w.u32(static_cast<uint32_t>(h.buckets.size()));
    for (int64_t bucket : h.buckets) w.i64(bucket);
  }
  w.u32(static_cast<uint32_t>(snapshot.series.size()));
  for (const obs::TimeSeries& ts : snapshot.series) {
    w.str(ts.name);
    w.u32(static_cast<uint32_t>(ts.samples.size()));
    for (const obs::TimeSeriesSample& s : ts.samples) {
      w.i64(s.t_ns);
      w.i64(s.value);
    }
  }
  return w.take();
}

MetricsReport MetricsReport::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  MetricsReport out;
  out.node = r.str();
  const uint32_t counters = r.count(sizeof(uint32_t) + sizeof(int64_t));
  out.snapshot.counters.reserve(counters);
  for (uint32_t i = 0; i < counters; ++i) {
    obs::CounterValue c;
    c.name = r.str();
    c.value = r.i64();
    out.snapshot.counters.push_back(std::move(c));
  }
  const uint32_t histograms = r.count(2 * sizeof(uint32_t));
  out.snapshot.histograms.reserve(histograms);
  for (uint32_t i = 0; i < histograms; ++i) {
    obs::HistogramSnapshot h;
    h.name = r.str();
    h.count = r.i64();
    h.sum = r.i64();
    h.min = r.i64();
    h.max = r.i64();
    const uint32_t buckets = r.count(sizeof(int64_t));
    h.buckets.reserve(buckets);
    for (uint32_t b = 0; b < buckets; ++b) h.buckets.push_back(r.i64());
    out.snapshot.histograms.push_back(std::move(h));
  }
  const uint32_t series = r.count(2 * sizeof(uint32_t));
  out.snapshot.series.reserve(series);
  for (uint32_t i = 0; i < series; ++i) {
    obs::TimeSeries ts;
    ts.name = r.str();
    const uint32_t samples = r.count(2 * sizeof(int64_t));
    ts.samples.reserve(samples);
    for (uint32_t s = 0; s < samples; ++s) {
      obs::TimeSeriesSample sample;
      sample.t_ns = r.i64();
      sample.value = r.i64();
      ts.samples.push_back(sample);
    }
    out.snapshot.series.push_back(std::move(ts));
  }
  require_exhausted(r, "MetricsReport");
  return out;
}

std::vector<uint8_t> DataEnvelope::encode() const {
  Writer w;
  w.i64(static_cast<int64_t>(seq));
  w.i64(static_cast<int64_t>(trace_id));
  w.i64(static_cast<int64_t>(parent_span));
  w.u8(static_cast<uint8_t>(inner_type));
  w.blob(inner.data(), inner.size());
  return w.take();
}

DataEnvelope DataEnvelope::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  DataEnvelope out;
  out.seq = static_cast<uint64_t>(r.i64());
  out.trace_id = static_cast<uint64_t>(r.i64());
  out.parent_span = static_cast<uint64_t>(r.i64());
  out.inner_type = static_cast<MessageType>(r.u8());
  out.inner = r.blob();
  require_exhausted(r, "DataEnvelope");
  return out;
}

std::vector<uint8_t> AckMsg::encode() const {
  Writer w;
  w.i64(static_cast<int64_t>(cumulative));
  return w.take();
}

AckMsg AckMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  AckMsg out;
  out.cumulative = static_cast<uint64_t>(r.i64());
  require_exhausted(r, "AckMsg");
  return out;
}

std::vector<uint8_t> HeartbeatMsg::encode() const {
  Writer w;
  w.i64(seq);
  w.i64(sent_ns);
  return w.take();
}

HeartbeatMsg HeartbeatMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  HeartbeatMsg out;
  out.seq = r.i64();
  out.sent_ns = r.i64();
  require_exhausted(r, "HeartbeatMsg");
  return out;
}

std::vector<uint8_t> ReassignMsg::encode() const {
  Writer w;
  w.str(dead);
  w.u32(static_cast<uint32_t>(kernels.size()));
  for (const auto& [kernel, owner] : kernels) {
    w.str(kernel);
    w.str(owner);
  }
  return w.take();
}

ReassignMsg ReassignMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  ReassignMsg out;
  out.dead = r.str();
  const uint32_t n = r.count(2 * sizeof(uint32_t));
  out.kernels.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string kernel = r.str();
    std::string owner = r.str();
    out.kernels.emplace_back(std::move(kernel), std::move(owner));
  }
  require_exhausted(r, "ReassignMsg");
  return out;
}

std::vector<uint8_t> IdleReport::encode() const {
  Writer w;
  w.u8(idle ? 1 : 0);
  w.i64(stores_sent);
  w.i64(stores_received);
  return w.take();
}

IdleReport IdleReport::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  IdleReport out;
  out.idle = r.u8() != 0;
  out.stores_sent = r.i64();
  out.stores_received = r.i64();
  require_exhausted(r, "IdleReport");
  return out;
}

std::vector<uint8_t> CaptureMsg::encode() const {
  Writer w;
  w.str(field);
  w.i64(age);
  w.blob(payload.data(), payload.size());
  return w.take();
}

CaptureMsg CaptureMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  CaptureMsg m;
  m.field = r.str();
  m.age = r.i64();
  m.payload = r.blob();
  require_exhausted(r, "CaptureMsg");
  return m;
}

std::vector<uint8_t> NodeDoneMsg::encode() const {
  Writer w;
  w.u8(ok ? 1 : 0);
  w.str(error);
  return w.take();
}

NodeDoneMsg NodeDoneMsg::decode(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  NodeDoneMsg m;
  m.ok = r.u8() != 0;
  m.error = r.str();
  require_exhausted(r, "NodeDoneMsg");
  return m;
}

}  // namespace p2g::dist
