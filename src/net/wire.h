// Framed wire format for the out-of-process transport.
//
// Every socket frame is [u32 length][body], where body is a serialized
// NetEnvelope: the routing destination plus the full dist::Message
// (type, from, payload, seq/attempt delivery metadata, trace context).
// The length prefix lets the stream reader cut message boundaries; the
// envelope reuses the existing serialize.h codecs so the whole truncation
// corpus (every strict prefix throws kProtocol) applies to the new format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/message.h"

namespace p2g::net {

/// One routed message on the wire: where it is going plus the message
/// itself. "*" as destination means broadcast to every endpoint except the
/// sender.
struct NetEnvelope {
  std::string to;
  dist::Message msg;

  std::vector<uint8_t> encode() const;
  static NetEnvelope decode(const std::vector<uint8_t>& bytes);
};

/// Connection handshake: the first frame a node sends after connecting,
/// naming the endpoint this socket carries.
struct HelloMsg {
  std::string name;
  int64_t pid = 0;

  std::vector<uint8_t> encode() const;
  static HelloMsg decode(const std::vector<uint8_t>& bytes);
};

/// Master -> node: the program to run (kernel-language source), kernel
/// ownership for the whole cluster, the fields the master wants captured
/// (complete ages shipped back as kCapture) when the run drains, and the
/// node's run options.
struct AssignMsg {
  std::string source;
  std::vector<std::pair<std::string, std::string>> kernels;  ///< name->owner
  std::vector<std::string> capture_fields;
  std::optional<int64_t> max_age;  ///< RunOptions::max_age
  bool metrics = false;            ///< RunOptions::metrics.enabled

  std::vector<uint8_t> encode() const;
  static AssignMsg decode(const std::vector<uint8_t>& bytes);
};

/// Encodes a complete frame: [u32 body-length][body].
std::vector<uint8_t> encode_frame(const NetEnvelope& envelope);

/// One-shot decode of a complete frame. Throws kProtocol when the bytes
/// are not exactly one well-formed frame (short prefix, length mismatch,
/// truncated envelope) — this is the entry point the truncation corpus
/// drives.
NetEnvelope decode_frame(const std::vector<uint8_t>& bytes);

/// Incremental frame cutter for a byte stream: feed() whatever arrived,
/// poll() complete envelopes out. Throws kProtocol on an absurd length
/// prefix (> 64 MiB) — a corrupt stream must fail loudly, not allocate.
class FrameReader {
 public:
  void feed(const uint8_t* data, size_t size);
  std::optional<NetEnvelope> poll();

  /// Bytes buffered but not yet cut into a frame.
  size_t pending() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

}  // namespace p2g::net
