#include "obs/sampler.h"

#include "common/clock.h"

namespace p2g::obs {

Sampler::Sampler(std::chrono::milliseconds period) : period_(period) {
  if (period_.count() < 1) period_ = std::chrono::milliseconds(1);
}

Sampler::~Sampler() { stop(); }

void Sampler::add_source(std::string name, std::function<int64_t()> sample) {
  Source source;
  source.sample = std::move(sample);
  source.series.name = std::move(name);
  sources_.push_back(std::move(source));
}

void Sampler::start() {
  if (started_ || sources_.empty()) return;
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void Sampler::stop() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<TimeSeries> Sampler::take_series() {
  std::vector<TimeSeries> out;
  out.reserve(sources_.size());
  for (Source& source : sources_) {
    out.push_back(std::move(source.series));
  }
  sources_.clear();
  return out;
}

void Sampler::sample_once() {
  const int64_t t = now_ns();
  for (Source& source : sources_) {
    source.series.samples.push_back(TimeSeriesSample{t, source.sample()});
  }
}

void Sampler::loop() {
  // A first and a closing sample, so even a run stopped before the thread
  // got going has two points.
  sample_once();
  std::unique_lock lock(mutex_);
  while (!cv_.wait_for(lock, period_, [&] { return stopping_; })) {
    lock.unlock();
    sample_once();
    lock.lock();
  }
  lock.unlock();
  sample_once();
}

}  // namespace p2g::obs
