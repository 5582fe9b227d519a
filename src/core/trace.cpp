#include "core/trace.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "check/sync.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace p2g {

namespace {

// Domain-separation salts so frame ids, span ids and flow ids never
// collide even when built from overlapping inputs.
constexpr uint64_t kFrameSalt = 0x70326766726D6531ULL;  // "p2gfrme1"
constexpr uint64_t kFlowSalt = 0x703267666C6F7731ULL;   // "p2gflow1"

uint64_t flow_id_of(const TraceContext& ctx) {
  return mix(kFlowSalt, ctx.trace_id, ctx.span_id);
}

void write_hex(std::ostream& os, uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  os << buf;
}

/// Causal args: emitted only for traced events (and always in flight
/// dumps) to keep untraced documents byte-compatible with the original
/// span format.
void write_causal_args(std::ostream& os, SpanKind kind, uint64_t trace_id,
                       uint64_t span_id, uint64_t parent_span) {
  os << ", \"kind\": \"" << to_string(kind) << "\"";
  os << ", \"trace\": \"";
  write_hex(os, trace_id);
  os << "\", \"span\": \"";
  write_hex(os, span_id);
  os << "\"";
  if (parent_span != 0) {
    os << ", \"parent\": \"";
    write_hex(os, parent_span);
    os << "\"";
  }
}

}  // namespace

uint64_t frame_trace_id(FieldId field, Age age) {
  const uint64_t id = mix(kFrameSalt, static_cast<uint64_t>(field),
                          static_cast<uint64_t>(age));
  return id != 0 ? id : 1;
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWorker: return "worker";
    case SpanKind::kAnalyzer: return "analyzer";
    case SpanKind::kWire: return "wire";
    case SpanKind::kRemoteStore: return "remote_store";
    case SpanKind::kRecovery: return "recovery";
    case SpanKind::kOther: return "other";
  }
  return "other";
}

// --- storage ----------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_next_collector_id{1};

/// The last few collectors this thread recorded into (a worker delivering
/// stores by direct call records into its peers' too) and its buffers
/// there, replaced in turn. Keyed by the never-reused collector id, so a
/// destroyed collector's entry can never be hit again.
struct BufferCache {
  static constexpr size_t kWays = 4;
  uint64_t collector[kWays] = {};
  void* buffer[kWays] = {};
  size_t next = 0;
};
thread_local BufferCache t_buffer_cache;

/// Records per block of an unbounded buffer.
constexpr size_t kBlockRecords = 256;

enum class Tag : uint8_t { kSpan = 0, kFlowStart = 1, kFlowFinish = 2 };

/// One stored entry: the Record's bytes plus its tag, written and read as
/// relaxed atomic words so a flight ring may be overwritten while a reader
/// copies it (the reader detects that and drops the entry instead of
/// reporting a torn one).
constexpr size_t kRecordWords = sizeof(TraceCollector::Record) / 8;
static_assert(sizeof(TraceCollector::Record) == 8 * kRecordWords);
using Slot = std::array<std::atomic<uint64_t>, kRecordWords + 1>;

struct Block {
  explicit Block(size_t size) : slots(new Slot[size]) {}
  std::unique_ptr<Slot[]> slots;
  std::atomic<Block*> next{nullptr};
};

// Process-wide registry for the SIGABRT dump: fixed slots of atomic
// pointers so the signal handler never takes a lock or allocates.
constexpr size_t kMaxCollectors = 32;
std::atomic<TraceCollector*> g_collectors[kMaxCollectors];
std::atomic<int> g_abort_fd{-1};

}  // namespace

/// A record plus what it is: a span, or a flow endpoint (span_id holds
/// the flow id, start_ns its time).
struct TraceCollector::Entry {
  Record record;
  Tag tag = Tag::kSpan;
};

/// One recording thread's records. Single writer (the owning thread);
/// `published` counts the records readers may take. Unbounded buffers
/// chain blocks; a bounded one reuses its first block as a ring, and
/// `claimed` (bumped before a slot is overwritten) lets readers drop
/// entries overwritten under them — a seqlock per slot.
struct TraceCollector::ThreadBuffer {
  explicit ThreadBuffer(size_t capacity_)
      : capacity(capacity_), first(capacity_ != 0 ? capacity_
                                                  : kBlockRecords) {}
  ~ThreadBuffer() {
    Block* block = first.next.load(std::memory_order_relaxed);
    while (block != nullptr) {
      Block* next = block->next.load(std::memory_order_relaxed);
      delete block;
      block = next;
    }
  }

  void append(const Entry& e) {
    const uint64_t i = published.load(std::memory_order_relaxed);
    Slot* slot;
    if (capacity != 0) {
      slot = &first.slots[i & (capacity - 1)];
    } else {
      const uint64_t pos = i % kBlockRecords;
      if (pos == 0 && i != 0) {
        auto* block = new Block(kBlockRecords);
        last->next.store(block, std::memory_order_release);
        last = block;
      }
      slot = &last->slots[pos];
    }
    claimed.store(i + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    check::write_range(slot, sizeof(Slot), "TraceCollector.record");
    uint64_t words[kRecordWords + 1];
    std::memcpy(words, &e.record, sizeof(Record));
    words[kRecordWords] = static_cast<uint64_t>(e.tag);
    for (size_t k = 0; k <= kRecordWords; ++k) {
      (*slot)[k].store(words[k], std::memory_order_relaxed);
    }
    check::release(&published);
    published.store(i + 1, std::memory_order_release);
  }

  template <typename Fn>
  void visit(size_t tail, Fn&& fn) const {
    const uint64_t n = published.load(std::memory_order_acquire);
    check::acquire(&published);
    const uint64_t keep = capacity != 0 ? std::min<uint64_t>(capacity, tail)
                                        : tail;
    const uint64_t lo = n > keep ? n - keep : 0;
    const Block* block = &first;
    uint64_t base = 0;
    for (uint64_t i = lo; i < n; ++i) {
      const Slot* slot;
      if (capacity != 0) {
        slot = &first.slots[i & (capacity - 1)];
        check::racy_read(slot, sizeof(Slot));  // validated below
      } else {
        while (i - base >= kBlockRecords) {
          block = block->next.load(std::memory_order_acquire);
          base += kBlockRecords;
        }
        slot = &block->slots[i - base];
        check::read_range(slot, sizeof(Slot), "TraceCollector.record");
      }
      uint64_t words[kRecordWords + 1];
      for (size_t k = 0; k <= kRecordWords; ++k) {
        words[k] = (*slot)[k].load(std::memory_order_relaxed);
      }
      if (capacity != 0) {
        // Slot i is rewritten by record i + capacity, claimed first.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (claimed.load(std::memory_order_relaxed) > i + capacity) continue;
      }
      Entry e;
      std::memcpy(&e.record, words, sizeof(Record));
      e.tag = static_cast<Tag>(words[kRecordWords]);
      fn(e);
    }
  }

  const size_t capacity;  ///< 0 = unbounded
  Block first;
  Block* last = &first;  ///< writer only
  std::atomic<uint64_t> claimed{0};
  std::atomic<uint64_t> published{0};
  std::atomic<ThreadBuffer*> next{nullptr};
};

TraceCollector::TraceCollector(size_t capacity)
    : id_(g_next_collector_id.fetch_add(1)),
      capacity_(capacity == 0 ? 0 : std::bit_ceil(capacity)),
      names_(new std::atomic<const char*>[kMaxNames]()) {
  for (std::atomic<TraceCollector*>& slot : g_collectors) {
    TraceCollector* expected = nullptr;
    if (slot.compare_exchange_strong(expected, this)) break;
  }
}

TraceCollector::~TraceCollector() {
  for (std::atomic<TraceCollector*>& slot : g_collectors) {
    TraceCollector* expected = this;
    if (slot.compare_exchange_strong(expected, nullptr)) break;
  }
  ThreadBuffer* buffer = buffers_.load(std::memory_order_relaxed);
  while (buffer != nullptr) {
    ThreadBuffer* next = buffer->next.load(std::memory_order_relaxed);
    delete buffer;
    buffer = next;
  }
}

TraceCollector::ThreadBuffer& TraceCollector::local_buffer() {
  BufferCache& cache = t_buffer_cache;
  for (size_t way = 0; way < BufferCache::kWays; ++way) {
    if (cache.collector[way] == id_) {
      return *static_cast<ThreadBuffer*>(cache.buffer[way]);
    }
  }
  std::scoped_lock lock(mutex_);
  ThreadBuffer*& buffer = buffer_of_[std::this_thread::get_id()];
  if (buffer == nullptr) {
    buffer = new ThreadBuffer(capacity_);
    buffer->next.store(buffers_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    buffers_.store(buffer, std::memory_order_release);
  }
  const size_t way = cache.next++ % BufferCache::kWays;
  cache.collector[way] = id_;
  cache.buffer[way] = buffer;
  return *buffer;
}

template <typename Fn>
void TraceCollector::visit(size_t tail, Fn&& fn) const {
  for (const ThreadBuffer* buffer = buffers_.load(std::memory_order_acquire);
       buffer != nullptr;
       buffer = buffer->next.load(std::memory_order_acquire)) {
    buffer->visit(tail, fn);
  }
}

uint32_t TraceCollector::intern(std::string_view name) {
  std::scoped_lock lock(mutex_);
  const auto found = name_ids_.find(name);
  if (found != name_ids_.end()) return found->second;
  const auto id = static_cast<uint32_t>(name_ids_.size());
  P2G_CHECK_ARGUMENT(id < kMaxNames, "trace: too many distinct span names");
  names_[id].store(
      name_ids_.emplace(std::string(name), id).first->first.c_str(),
      std::memory_order_release);
  return id;
}

const char* TraceCollector::name_of(uint32_t id) const {
  const char* name =
      id < kMaxNames ? names_[id].load(std::memory_order_acquire) : nullptr;
  return name != nullptr ? name : "";
}

void TraceCollector::record(const Record& record) {
  local_buffer().append(Entry{record, Tag::kSpan});
}

void TraceCollector::record(const Span& span) {
  record(Record{span.start_ns, span.duration_ns, span.thread_id, span.age,
                span.bodies, span.kind, intern(span.name), span.trace_id,
                span.span_id, span.parent_span});
}

void TraceCollector::record_counter(CounterSample sample) {
  if (capacity_ != 0) return;  // flight recorders keep spans only
  std::scoped_lock lock(mutex_);
  counters_.push_back(std::move(sample));
}

void TraceCollector::record_flow(FlowEvent flow) {
  if (capacity_ != 0) return;
  Record r;
  r.start_ns = flow.t_ns;
  r.thread_id = flow.thread_id;
  r.span_id = flow.flow_id;
  local_buffer().append(
      Entry{r, flow.finish ? Tag::kFlowFinish : Tag::kFlowStart});
}

void TraceCollector::record_flow_start(const TraceContext& ctx, int64_t t_ns,
                                       int64_t thread_id) {
  record_flow(FlowEvent{flow_id_of(ctx), t_ns, thread_id, false});
}

void TraceCollector::record_flow_finish(const TraceContext& ctx,
                                        int64_t t_ns, int64_t thread_id) {
  record_flow(FlowEvent{flow_id_of(ctx), t_ns, thread_id, true});
}

// --- readers ----------------------------------------------------------------

size_t TraceCollector::span_count() const {
  size_t n = 0;
  visit(SIZE_MAX, [&n](const Entry& e) { n += e.tag == Tag::kSpan; });
  return n;
}

size_t TraceCollector::counter_sample_count() const {
  std::scoped_lock lock(mutex_);
  return counters_.size();
}

size_t TraceCollector::flow_event_count() const {
  size_t n = 0;
  visit(SIZE_MAX, [&n](const Entry& e) { n += e.tag != Tag::kSpan; });
  return n;
}

std::vector<TraceCollector::Span> TraceCollector::spans_snapshot() const {
  std::vector<Span> out;
  visit(SIZE_MAX, [this, &out](const Entry& e) {
    if (e.tag != Tag::kSpan) return;
    const Record& r = e.record;
    out.push_back(Span{name_of(r.name), r.start_ns, r.duration_ns,
                       r.thread_id, r.age, r.bodies, r.kind, r.trace_id,
                       r.span_id, r.parent_span});
  });
  return out;
}

int64_t TraceCollector::earliest_ns() const {
  int64_t epoch = 0;
  const auto take = [&epoch](int64_t t) {
    if (epoch == 0 || t < epoch) epoch = t;
  };
  visit(SIZE_MAX, [&take](const Entry& e) { take(e.record.start_ns); });
  std::scoped_lock lock(mutex_);
  for (const CounterSample& sample : counters_) take(sample.t_ns);
  return epoch;
}

void TraceCollector::emit_events(std::ostream& os, int pid,
                                 const std::string& process_name,
                                 int64_t epoch_ns, bool& first) const {
  emit(os, pid, process_name, epoch_ns, first, /*flight=*/false);
}

void TraceCollector::emit_flight_events(std::ostream& os, int pid,
                                        const std::string& process_name,
                                        int64_t epoch_ns, bool& first) const {
  emit(os, pid, process_name, epoch_ns, first, /*flight=*/true);
}

void TraceCollector::emit(std::ostream& os, int pid,
                          const std::string& process_name, int64_t epoch_ns,
                          bool& first, bool flight) const {
  const size_t tail = flight ? kFlightCapacity : SIZE_MAX;
  std::scoped_lock lock(mutex_);
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: label the process lane and every thread lane so Perfetto
  // shows "node1 / worker 0" instead of bare pid/tid numbers.
  sep();
  os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
     << ", \"args\": {\"name\": \"" << json_escape(process_name) << "\"}}";
  std::set<int64_t> tids;
  visit(tail, [&tids](const Entry& e) { tids.insert(e.record.thread_id); });
  for (const int64_t tid : tids) {
    std::string label;
    if (tid >= 0) {
      label = "worker " + std::to_string(tid);
    } else if (tid == -1) {
      label = "analyzer";
    } else if (tid == -2) {
      label = "net";
    } else if (tid == -3) {
      label = "retry";
    } else {
      label = "thread " + std::to_string(tid);
    }
    sep();
    os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
       << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
       << json_escape(label) << "\"}}";
  }

  visit(tail, [&](const Entry& e) {
    if (e.tag != Tag::kSpan) return;
    const Record& span = e.record;
    sep();
    // Chrome trace "complete" events: ph=X, ts/dur in microseconds.
    os << "  {\"name\": \"" << json_escape(name_of(span.name))
       << "\", \"cat\": \"" << (flight ? "p2g.flight" : "p2g") << "\", "
       << "\"ph\": \"X\", \"pid\": " << pid
       << ", \"tid\": " << span.thread_id
       << ", \"ts\": " << (span.start_ns - epoch_ns) / 1000.0
       << ", \"dur\": " << span.duration_ns / 1000.0
       << ", \"args\": {\"age\": " << span.age
       << ", \"bodies\": " << span.bodies;
    if (flight || span.trace_id != 0 || span.kind != SpanKind::kWorker) {
      write_causal_args(os, span.kind, span.trace_id, span.span_id,
                        span.parent_span);
    }
    os << "}}";
  });
  if (flight) return;
  for (const CounterSample& sample : counters_) {
    sep();
    // Counter events: ph=C, one track per name, rendered by Perfetto as a
    // filled curve above the span lanes.
    os << "  {\"name\": \"" << json_escape(sample.track)
       << "\", \"cat\": \"p2g\", \"ph\": \"C\", \"pid\": " << pid
       << ", \"ts\": " << (sample.t_ns - epoch_ns) / 1000.0
       << ", \"args\": {\"value\": " << sample.value << "}}";
  }
  visit(tail, [&](const Entry& e) {
    if (e.tag == Tag::kSpan) return;
    const bool finish = e.tag == Tag::kFlowFinish;
    sep();
    // Flow endpoints: ph=s where data leaves a span, ph=f (bp=e: bind to
    // the enclosing slice) where a dependent span picks it up. The id is
    // derived from the carried TraceContext, so the two sides agree on it
    // across nodes and Chrome draws the arrow between lanes.
    os << "  {\"name\": \"dep\", \"cat\": \"p2g.flow\", \"ph\": \""
       << (finish ? "f" : "s") << "\"";
    if (finish) os << ", \"bp\": \"e\"";
    os << ", \"id\": \"";
    write_hex(os, e.record.span_id);
    os << "\", \"pid\": " << pid << ", \"tid\": " << e.record.thread_id
       << ", \"ts\": " << (e.record.start_ns - epoch_ns) / 1000.0 << "}";
  });
}

std::string TraceCollector::to_chrome_json() const {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  emit_events(os, 1, "p2g", earliest_ns(), first);
  os << "\n]\n";
  return os.str();
}

void TraceCollector::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) {
    throw_error(ErrorKind::kIo, "cannot open '" + path + "' for writing");
  }
  // Streamed, not materialized: the document is written event by event so
  // a large trace never builds a second full copy in memory.
  os << "[\n";
  bool first = true;
  emit_events(os, 1, "p2g", earliest_ns(), first);
  os << "\n]\n";
  os.flush();
  if (!os.good()) {
    throw_error(ErrorKind::kIo, "failed writing trace to '" + path + "'");
  }
}

bool TraceCollector::dump_flight(const std::string& path,
                                 const std::string& process_name) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) {
    P2G_WARNC("flight") << "cannot open flight dump '" << path << "'";
    return false;
  }
  os << "[\n";
  bool first = true;
  emit_flight_events(os, 1, process_name, 0, first);
  os << "\n]\n";
  os.flush();
  if (!os.good()) {
    P2G_WARNC("flight") << "failed writing flight dump '" << path << "'";
    return false;
  }
  return true;
}

// --- SIGABRT dump -------------------------------------------------------------

namespace {

// Async-signal-safe formatting: snprintf is NOT on the POSIX
// async-signal-safe list (glibc's may take locale locks or malloc on
// first use), so the handler formats with these hand-rolled appenders
// into a stack buffer and emits via write(2) only.
size_t as_append(char* buf, size_t cap, size_t pos, const char* s) {
  while (*s != '\0' && pos < cap) buf[pos++] = *s++;
  return pos;
}

size_t as_append_dec(char* buf, size_t cap, size_t pos, long long value) {
  char digits[24];
  size_t n = 0;
  // Negate into unsigned space so LLONG_MIN does not overflow.
  unsigned long long u = value < 0
      ? ~static_cast<unsigned long long>(value) + 1ULL
      : static_cast<unsigned long long>(value);
  do {
    digits[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0);
  if (value < 0 && pos < cap) buf[pos++] = '-';
  while (n > 0 && pos < cap) buf[pos++] = digits[--n];
  return pos;
}

size_t as_append_hex(char* buf, size_t cap, size_t pos,
                     unsigned long long value) {
  char digits[16];
  size_t n = 0;
  do {
    digits[n++] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  } while (value != 0);
  while (n > 0 && pos < cap) buf[pos++] = digits[--n];
  return pos;
}

}  // namespace

void TraceCollector::abort_handler(int signum) {
  const int fd = g_abort_fd.load(std::memory_order_acquire);
  for (size_t pid = 0; fd >= 0 && pid < kMaxCollectors; ++pid) {
    const TraceCollector* collector =
        g_collectors[pid].load(std::memory_order_acquire);
    if (collector == nullptr) continue;
    // Records are read as atomics and names through the lock-free table;
    // formatting is hand-rolled into a stack buffer, output goes through
    // write(2).
    collector->visit(kFlightCapacity, [collector, fd, pid](const Entry& e) {
      if (e.tag != Tag::kSpan) return;
      char line[256];
      const size_t cap = sizeof(line);
      size_t pos = 0;
      pos = as_append(line, cap, pos, "{\"name\": \"");
      pos = as_append(line, cap, pos, collector->name_of(e.record.name));
      pos = as_append(line, cap, pos,
                      "\", \"cat\": \"p2g.flight\", \"ph\": \"X\", "
                      "\"pid\": ");
      pos = as_append_dec(line, cap, pos, static_cast<long long>(pid));
      pos = as_append(line, cap, pos, ", \"tid\": ");
      pos = as_append_dec(line, cap, pos, e.record.thread_id);
      pos = as_append(line, cap, pos, ", \"ts_ns\": ");
      pos = as_append_dec(line, cap, pos, e.record.start_ns);
      pos = as_append(line, cap, pos, ", \"dur_ns\": ");
      pos = as_append_dec(line, cap, pos, e.record.duration_ns);
      pos = as_append(line, cap, pos, ", \"span\": \"0x");
      pos = as_append_hex(line, cap, pos, e.record.span_id);
      pos = as_append(line, cap, pos, "\"}\n");
      const ssize_t written = write(fd, line, pos);
      (void)written;
    });
  }
  if (fd >= 0) fsync(fd);
  signal(signum, SIG_DFL);
  raise(signum);
}

void TraceCollector::install_abort_dump(const std::string& path) {
  static std::once_flag once;
  std::call_once(once, [&path] {
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      P2G_WARNC("flight") << "cannot open abort dump '" << path << "'";
      return;
    }
    g_abort_fd.store(fd, std::memory_order_release);
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = &TraceCollector::abort_handler;
    sigaction(SIGABRT, &action, nullptr);
  });
}

}  // namespace p2g
