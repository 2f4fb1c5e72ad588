#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/evaluator.hpp"

namespace edsim::service {

/// Version byte of the `EDRS` store envelope. Bump on any change to the
/// record payload layout (it covers the wire.hpp Metrics encoding); the
/// reader rejects mismatches with Error{kStoreFormat} instead of
/// misinterpreting bytes. Records are snapshot envelopes, so a
/// kSnapshotVersion bump bumps this too (version 4 = snapshot version 3).
inline constexpr std::uint8_t kResultStoreVersion = 4;

/// Content-addressed, on-disk evaluation cache: an append log of
/// (result_key, Metrics) records behind the in-memory memo, so design
/// sweeps warm-start across processes and machines.
///
/// File layout:
///
///   "EDRS" magic | version byte | record...
///   record := varint blob_len | sealed snapshot blob
///   blob payload := varint key | Metrics fields (service/wire.hpp)
///
/// Each record body is a common/snapshot envelope, so every record
/// carries its own magic/version/checksum. Writes are crash-safe by
/// construction: a record is appended with one buffered write and
/// flushed, so a crash can only ever leave a *torn tail* — a partial
/// final record — which open() detects, drops, counts in
/// stats().recovered_tail_records, and truncates away so the next append
/// starts from a clean boundary. Corruption anywhere *before* the tail
/// (a mid-file flip or a foreign file) is unrecoverable by appending and
/// raises Error{kStoreFormat}; the store never returns a metrics vector
/// that differs from what was put.
///
/// Thread-safe within one process. A single writer process is assumed
/// per file (the batch front end funnels all puts through the
/// coordinator); concurrent readers of an already-written file are fine.
class ResultStore final : public core::ResultStoreBase {
 public:
  /// Opens (replaying the log) or creates the store at `path`.
  explicit ResultStore(std::string path);
  ~ResultStore() override;

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  bool find(std::uint64_t key, core::Metrics* out) override;
  void put(std::uint64_t key, const core::Metrics& m) override;
  core::ResultStoreStats stats() const override;

  const std::string& path() const { return path_; }
  std::size_t entries() const;

 private:
  void open_or_create();

  mutable std::mutex mu_;
  std::string path_;
  std::unordered_map<std::uint64_t, core::Metrics> map_;
  core::ResultStoreStats stats_;
  std::FILE* file_ = nullptr;  ///< append handle, positioned at the tail
};

}  // namespace edsim::service
