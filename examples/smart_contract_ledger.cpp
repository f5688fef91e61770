// Smart-contract ledger example (§IV, §VIII): an SBFT cluster replicating the
// EVM ledger service. Each client deploys an ERC-20-style token contract,
// mints itself a balance, and issues transfer batches; one replica also
// persists decision blocks to a real on-disk ledger file.
//
//   $ ./examples/smart_contract_ledger
#include <cstdio>
#include <filesystem>

#include "common/serde.h"
#include "crypto/sha256.h"

#include "evm/evm_service.h"
#include "evm/u256.h"
#include "harness/cluster.h"
#include "harness/eth_workload.h"
#include "storage/ledger_storage.h"

using namespace sbft;

int main() {
  harness::ClusterOptions opts;
  opts.kind = harness::ProtocolKind::kSbft;
  opts.f = 1;
  opts.num_clients = 3;
  opts.requests_per_client = 10;
  opts.topology = sim::lan_topology();
  opts.service_factory = [] { return std::make_unique<evm::EvmLedgerService>(); };

  harness::EthWorkloadOptions workload;
  workload.txs_per_request = 10;
  workload.create_fraction = 0.05;
  opts.per_client_op_factory = [workload](ClientId id) {
    return harness::eth_op_factory(id, workload);
  };

  harness::Cluster cluster(std::move(opts));
  std::printf("EVM ledger on SBFT: n=%u replicas, %zu clients, ~%u txs/request\n",
              cluster.n(), cluster.num_clients(), workload.txs_per_request);

  if (!cluster.run_until_done(240'000'000)) {
    std::printf("clients did not finish in time\n");
    return 1;
  }
  cluster.run_for(5'000'000);

  const auto& ledger = dynamic_cast<const evm::EvmLedgerService&>(
      cluster.sbft_replica(1)->service());
  std::printf("contracts created on-chain: %llu\n",
              static_cast<unsigned long long>(ledger.contracts_created()));

  // Read a token balance straight from replica 1's authenticated state.
  ClientId first_client = cluster.n();
  evm::Address token = harness::eth_token_of(first_client);
  evm::Address account = harness::eth_account_of(first_client);
  auto code = ledger.code_of(token);
  std::printf("client %u token code size: %zu bytes\n", first_client,
              code ? code->size() : 0);

  // balance slot = SHA3(account_word || 0), mirroring the contract.
  Bytes q;
  q.insert(q.end(), token.begin(), token.end());
  evm::U256 acct_word = evm::U256::from_bytes_be(ByteSpan{account.data(), 20});
  Bytes slot_preimage = acct_word.to_bytes();
  Bytes zero_word(32, 0);
  slot_preimage.insert(slot_preimage.end(), zero_word.begin(), zero_word.end());
  Digest slot = crypto::sha256(as_span(slot_preimage));
  {
    Writer w;
    w.bytes(ByteSpan{slot.data(), slot.size()});
    Bytes enc = std::move(w).take();
    q.insert(q.end(), enc.begin(), enc.end());
  }
  Bytes balance = ledger.query(as_span(q));
  std::printf("client %u on-chain balance word: %s\n", first_client,
              to_hex(as_span(balance)).c_str());

  // Copy replica 1's decisions from its in-memory ledger into a real on-disk
  // ledger file; both hand back the same canonical encoding.
  auto path = std::filesystem::temp_directory_path() / "sbft-example-ledger.bin";
  std::filesystem::remove(path);
  bool identical = true;
  {
    storage::FileLedgerStorage file_ledger(path.string());
    auto memory_ledger = cluster.replica_ledger(1);
    for (SeqNum s = 1; s <= memory_ledger->last_seq(); ++s) {
      auto encoded = memory_ledger->read_block(s);
      auto msg = encoded ? decode_message(as_span(*encoded)) : std::nullopt;
      if (!msg || !std::holds_alternative<PrePrepareMsg>(*msg)) continue;
      const auto& decision = std::get<PrePrepareMsg>(*msg);
      file_ledger.append_block(s, decision.view, decision.block);
      identical = identical && file_ledger.read_block(s) == encoded;
    }
    file_ledger.sync();
    std::printf("persisted %llu decision blocks to %s (%s)\n",
                static_cast<unsigned long long>(file_ledger.block_count()),
                path.string().c_str(),
                identical ? "byte-identical to the memory ledger" : "MISMATCH");
  }

  bool agree = cluster.check_agreement();
  std::printf("agreement audit: %s\n", agree ? "OK" : "VIOLATED");
  std::filesystem::remove(path);
  return agree && identical ? 0 : 1;
}
