#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "storage/ledger_storage.h"

namespace sbft::storage {
namespace {

class TempFile {
 public:
  TempFile() {
    path_ = (std::filesystem::temp_directory_path() /
             ("sbft-ledger-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter_++)))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// A one-request block whose operation is `op`.
Block block_of(Bytes op) {
  Request req;
  req.client = 42;
  req.timestamp = 7;
  req.op = std::move(op);
  req.client_sig = to_bytes("sig");
  return Block({req});
}

Block block_of(const std::string& op) { return block_of(to_bytes(op)); }

/// The canonical encoding every ledger hands back for a decision.
Bytes decision(SeqNum s, ViewNum v, const Block& block) {
  return encode_message(Message(PrePrepareMsg{s, v, block}));
}

Bytes file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(MemoryLedger, AppendAndRead) {
  MemoryLedgerStorage ledger;
  const Block one = block_of("block-1");
  const Block two = block_of("block-2");
  ledger.append_block(1, 0, one);
  ledger.append_block(2, 3, two);
  EXPECT_EQ(ledger.block_count(), 2u);
  EXPECT_EQ(ledger.last_seq(), 2u);
  EXPECT_EQ(ledger.read_block(1), decision(1, 0, one));
  EXPECT_EQ(ledger.read_block(2), decision(2, 3, two));
  EXPECT_FALSE(ledger.read_block(3).has_value());
}

TEST(MemoryLedger, DuplicateAppendIgnored) {
  MemoryLedgerStorage ledger;
  const Block original = block_of("original");
  ledger.append_block(1, 0, original);
  ledger.append_block(1, 1, block_of("overwrite-attempt"));
  EXPECT_EQ(ledger.read_block(1), decision(1, 0, original));
  EXPECT_EQ(ledger.block_count(), 1u);
}

TEST(MemoryLedger, ReadDecisionHandsOutTheHeldBlock) {
  MemoryLedgerStorage ledger;
  const Block one = block_of("block-1");
  ledger.append_block(1, 4, one);
  std::optional<PrePrepareMsg> d = ledger.read_decision(1);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->seq, 1u);
  EXPECT_EQ(d->view, 4u);
  EXPECT_EQ(&d->block.requests(), &one.requests());  // shared, not copied
  EXPECT_EQ(encode_message(Message(*d)), decision(1, 4, one));
  EXPECT_FALSE(ledger.read_decision(2).has_value());
}

TEST(MemoryLedger, EmptyState) {
  MemoryLedgerStorage ledger;
  EXPECT_EQ(ledger.last_seq(), 0u);
  EXPECT_EQ(ledger.block_count(), 0u);
}

TEST(FileLedger, AppendAndRead) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  const Block alpha = block_of("alpha");
  const Block beta = block_of("beta");
  ledger.append_block(1, 0, alpha);
  ledger.append_block(5, 2, beta);
  EXPECT_EQ(ledger.read_block(1), decision(1, 0, alpha));
  EXPECT_EQ(ledger.read_block(5), decision(5, 2, beta));
  EXPECT_EQ(ledger.last_seq(), 5u);
}

TEST(FileLedger, OnDiskRecordsAreHeaderPlusDecisionEncoding) {
  // The file is [u64 seq][u32 len][payload] records, little-endian, with the
  // decision's canonical encoding as the payload.
  TempFile tmp;
  const Block alpha = block_of("alpha");
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(4, 1, alpha);
    ledger.sync();
  }
  const Bytes payload = decision(4, 1, alpha);
  Bytes expected = {4, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) expected.push_back(static_cast<uint8_t>(payload.size() >> (8 * i)));
  expected.insert(expected.end(), payload.begin(), payload.end());
  EXPECT_EQ(file_bytes(tmp.path()), expected);
}

TEST(FileLedger, DuplicateAppendIgnored) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  const Block original = block_of("original");
  ledger.append_block(1, 0, original);
  ledger.append_block(1, 1, block_of("overwrite-attempt"));
  EXPECT_EQ(ledger.read_block(1), decision(1, 0, original));
  EXPECT_EQ(ledger.block_count(), 1u);
}

TEST(FileLedger, SurvivesReopen) {
  TempFile tmp;
  const Block persisted = block_of("persisted");
  const Block also = block_of("also persisted");
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(1, 0, persisted);
    ledger.append_block(2, 0, also);
    ledger.sync();
  }
  FileLedgerStorage reopened(tmp.path());
  EXPECT_EQ(reopened.block_count(), 2u);
  EXPECT_EQ(reopened.read_block(1), decision(1, 0, persisted));
  EXPECT_EQ(reopened.read_block(2), decision(2, 0, also));
}

TEST(FileLedger, EmptyBlockAllowed) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  ledger.append_block(3, 0, Block{});
  auto blk = ledger.read_block(3);
  ASSERT_TRUE(blk.has_value());
  EXPECT_EQ(blk, decision(3, 0, Block{}));
  auto msg = decode_message(as_span(*blk));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(std::get<PrePrepareMsg>(*msg).block.requests().empty());
}

TEST(FileLedger, TruncatedTailHeaderIsDiscarded) {
  // A crash mid-append can leave a partial header; reopen must index only the
  // complete records and land the next append on a record boundary.
  TempFile tmp;
  const Block one = block_of("one");
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(1, 0, one);
    ledger.append_block(2, 0, block_of("two"));
    ledger.sync();
  }
  {
    std::FILE* f = std::fopen(tmp.path().c_str(), "ab");
    const uint8_t garbage[5] = {0x03, 0, 0, 0, 0};  // 5 of 12 header bytes
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  FileLedgerStorage reopened(tmp.path());
  EXPECT_EQ(reopened.block_count(), 2u);
  EXPECT_EQ(reopened.last_seq(), 2u);
  EXPECT_EQ(reopened.read_block(1), decision(1, 0, one));
  // Appends after the truncation parse cleanly on the next open.
  const Block three = block_of("three");
  reopened.append_block(3, 0, three);
  reopened.sync();
  FileLedgerStorage again(tmp.path());
  EXPECT_EQ(again.block_count(), 3u);
  EXPECT_EQ(again.read_block(3), decision(3, 0, three));
}

TEST(FileLedger, TruncatedTailPayloadIsDiscarded) {
  // Header fully written but the payload cut short: the record must not be
  // indexed (its bytes are garbage) and must be truncated away.
  TempFile tmp;
  const Block complete = block_of("complete");
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(1, 0, complete);
    ledger.append_block(2, 0, block_of("this-payload-gets-cut"));
    ledger.sync();
  }
  auto size = std::filesystem::file_size(tmp.path());
  std::filesystem::resize_file(tmp.path(), size - 4);
  FileLedgerStorage reopened(tmp.path());
  EXPECT_EQ(reopened.block_count(), 1u);
  EXPECT_EQ(reopened.last_seq(), 1u);
  EXPECT_EQ(reopened.read_block(1), decision(1, 0, complete));
  EXPECT_FALSE(reopened.read_block(2).has_value());
  // Re-appending sequence 2 works and survives another reopen.
  const Block rewritten = block_of("rewritten");
  reopened.append_block(2, 1, rewritten);
  reopened.sync();
  FileLedgerStorage again(tmp.path());
  EXPECT_EQ(again.block_count(), 2u);
  EXPECT_EQ(again.read_block(2), decision(2, 1, rewritten));
}

TEST(FileLedger, ReadDecisionRoundTripsThroughReopen) {
  TempFile tmp;
  const Block alpha = block_of("alpha");
  {
    FileLedgerStorage ledger(tmp.path());
    ledger.append_block(2, 5, alpha);
    ledger.sync();
  }
  FileLedgerStorage reopened(tmp.path());
  std::optional<PrePrepareMsg> d = reopened.read_decision(2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->seq, 2u);
  EXPECT_EQ(d->view, 5u);
  EXPECT_EQ(d->block.digest(), alpha.digest());
  EXPECT_FALSE(reopened.read_decision(3).has_value());
}

TEST(FileLedger, UndecodableRecordReadsAsMissing) {
  // A complete record whose payload is not a decision's encoding.
  TempFile tmp;
  {
    std::FILE* f = std::fopen(tmp.path().c_str(), "wb");
    const uint8_t record[12 + 3] = {9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0xff, 0xfe, 0xfd};
    std::fwrite(record, 1, sizeof(record), f);
    std::fclose(f);
  }
  FileLedgerStorage ledger(tmp.path());
  EXPECT_EQ(ledger.last_seq(), 9u);
  EXPECT_FALSE(ledger.read_decision(9).has_value());
  EXPECT_FALSE(ledger.read_block(9).has_value());
}

TEST(FileLedger, LargeBlock) {
  TempFile tmp;
  FileLedgerStorage ledger(tmp.path());
  const Block big = block_of(Bytes(1 << 18, 0x5a));
  ledger.append_block(7, 0, big);
  EXPECT_EQ(ledger.read_block(7), decision(7, 0, big));
}

}  // namespace
}  // namespace sbft::storage
