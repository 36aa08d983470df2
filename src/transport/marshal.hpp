// XDR framing for the direct-socket binding: values, call frames and
// reply frames. This is the wire format of the paper's proposed XDR
// binding — no XML, no text, counted numeric arrays (Section 5).
//
// Frames:
//   call   := magic "H2RQ" | string operation | u32 nparams | value*
//   rcall  := magic "H2RC" | string call-id | string operation | u32 nparams | value*
//   reply  := magic "H2RP" | bool ok | (value | u32 errcode, string errmsg)
//   batch  := magic "H2RB" | u32 ncalls | opaque(call-or-rcall frame)*
//   breply := magic "H2RZ" | u32 ncalls | opaque(reply frame)*
//   value  := string name | u32 kind-tag | payload(kind)
//
// "H2RC" is the resilient-call variant: identical to "H2RQ" plus a
// leading idempotency key, so servers can deduplicate retried calls.
// Plain "H2RQ" frames remain valid — old clients need not change.
//
// "H2RB"/"H2RZ" are the batching layer's multi-call frames: each
// sub-frame is a complete, length-prefixed singleton frame, so a batch
// sub-reply is byte-identical to the reply a singleton call would have
// received. The server serves both shapes with one function, and the
// "H2RP" reply frame is the unit its DedupCache stores: a cached reply
// replays into a batch or as a singleton without re-encoding.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "encoding/value.hpp"
#include "encoding/xdr.hpp"
#include "util/error.hpp"

namespace h2::net {

/// Appends one Value to an XDR stream.
void marshal_value(enc::XdrWriter& writer, const Value& value);

/// Reads one Value from an XDR stream.
Result<Value> unmarshal_value(enc::XdrReader& reader);

/// Builds a complete call frame. A non-empty `call_id` selects the "H2RC"
/// resilient-call frame carrying the idempotency key; empty keeps the
/// classic "H2RQ" layout byte-for-byte.
ByteBuffer marshal_call(std::string_view operation, std::span<const Value> params,
                        std::string_view call_id = {});

struct UnmarshaledCall {
  std::string operation;
  std::vector<Value> params;
  std::string call_id;  ///< empty for plain "H2RQ" frames
};
Result<UnmarshaledCall> unmarshal_call(std::span<const std::uint8_t> bytes);

/// Builds a reply frame carrying either a value or an error.
ByteBuffer marshal_reply(const Result<Value>& outcome);

/// Decodes a reply frame back into Result<Value> (remote errors come back
/// with their original ErrorCode).
Result<Value> unmarshal_reply(std::span<const std::uint8_t> bytes);

// ---- batching -----------------------------------------------------------------

/// One call inside a batch. A non-empty `call_id` gives that sub-call its
/// own idempotency key (sub-frame becomes "H2RC"), preserving at-most-once
/// semantics per sub-call when the whole batch is retried.
struct BatchItem {
  std::string operation;
  std::vector<Value> params;
  std::string call_id;
};

/// Upper bound on sub-frames per batch; unmarshalling rejects larger
/// counts before reserving anything (guards hostile count prefixes).
inline constexpr std::uint32_t kMaxBatchCalls = 4096;

// SOAP batch header vocabulary (the XML bindings mark batch envelopes
// with these headers; the XDR binding uses the "H2RB" magic instead).
inline constexpr const char* kBatchHeaderNs = "http://harness2/batch";
inline constexpr const char* kBatchCountHeaderName = "BatchCount";
inline constexpr const char* kBatchIdsHeaderName = "BatchCallIds";

/// Streaming forms of marshal_call/marshal_reply: append the frame to an
/// existing writer so batch assembly reuses one buffer for many frames.
void marshal_call_into(enc::XdrWriter& writer, std::string_view operation,
                       std::span<const Value> params, std::string_view call_id = {});
void marshal_reply_into(enc::XdrWriter& writer, const Result<Value>& outcome);

/// True when `bytes` begins with the "H2RB" batch-call magic — how the
/// server tells a batch frame from a singleton one.
bool is_batch_call(std::span<const std::uint8_t> bytes);
/// True when `bytes` begins with the "H2RZ" batch-reply magic.
bool is_batch_reply(std::span<const std::uint8_t> bytes);

/// Builds a complete "H2RB" frame. `scratch` (optional) donates its
/// capacity — pass a pooled buffer to make assembly allocation-free.
ByteBuffer marshal_batch_call(std::span<const BatchItem> calls,
                              ByteBuffer scratch = {});

/// Starts a "H2RZ" batch-reply frame in `writer`; the server then appends
/// `count` length-prefixed sub-replies (put_opaque of a complete reply
/// frame, or a backpatched in-place marshal_reply_into).
void marshal_batch_reply_begin(enc::XdrWriter& writer, std::uint32_t count);

/// Splits a "H2RB" frame into views of its sub-call frames. Zero-copy:
/// the spans alias `bytes` and each is a complete call/rcall frame for
/// unmarshal_call.
Result<std::vector<std::span<const std::uint8_t>>> split_batch_call(
    std::span<const std::uint8_t> bytes);

/// Splits a "H2RZ" frame into views of its sub-reply frames (each one a
/// complete reply frame for unmarshal_reply). Zero-copy, aliases `bytes`.
Result<std::vector<std::span<const std::uint8_t>>> split_batch_reply(
    std::span<const std::uint8_t> bytes);

}  // namespace h2::net
