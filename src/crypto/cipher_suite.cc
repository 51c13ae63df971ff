#include "crypto/cipher_suite.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "crypto/cbc.h"

namespace tdb::crypto {

namespace {

// Derives a purpose-specific subkey from the master secret so the cipher
// key and the MAC key are independent.
Buffer DeriveKey(Slice master, const char* purpose, size_t size) {
  Buffer out;
  uint8_t block_index = 0;
  while (out.size() < size) {
    Buffer label;
    label.insert(label.end(), purpose,
                 purpose + std::strlen(purpose));
    label.push_back(block_index++);
    Digest d = Hmac::Mac(HashKind::kSha256, master, label);
    out.insert(out.end(), d.data(), d.data() + d.size());
  }
  out.resize(size);
  return out;
}

}  // namespace

CipherSuite::CipherSuite(const SecurityConfig& config, Slice master_secret,
                         Slice iv_seed)
    : config_(config) {
  if (!config_.enabled) return;
  TDB_CHECK(master_secret.size() > 0, "secure mode requires a master secret");
  mac_key_ = DeriveKey(master_secret, "tdb-mac", 32);
  if (config_.cipher != CipherKind::kNone) {
    Buffer enc_key = DeriveKey(master_secret, "tdb-enc",
                               CipherKeySize(config_.cipher));
    cipher_ = NewBlockCipher(config_.cipher, enc_key);
  }
  Buffer seed = DeriveKey(master_secret, "tdb-iv", 32);
  seed.insert(seed.end(), iv_seed.data(), iv_seed.data() + iv_seed.size());
  iv_gen_ = std::make_unique<CtrDrbg>(seed);
}

size_t CipherSuite::hash_size() const {
  return config_.enabled ? DigestSize(config_.hash) : 0;
}

Digest CipherSuite::HashData(Slice data) const {
  if (!config_.enabled) return Digest();
  return Hash(config_.hash, data);
}

Digest CipherSuite::Mac(Slice data) const {
  if (!config_.enabled) return Digest();
  return Hmac::Mac(config_.hash, mac_key_, data);
}

Buffer CipherSuite::Seal(Slice plain) {
  if (!config_.enabled || cipher_ == nullptr) return plain.ToBuffer();
  Buffer iv = NextIv();
  return SealWithIv(plain, iv);
}

Buffer CipherSuite::NextIv() {
  if (!config_.enabled || cipher_ == nullptr) return Buffer();
  return iv_gen_->Generate(cipher_->block_size());
}

Buffer CipherSuite::LayOut(Slice plain, Slice iv) const {
  TDB_CHECK(iv.size() == cipher_->block_size(),
            "IV must be exactly one cipher block");
  Buffer out;
  out.reserve(SealedSize(plain.size()));
  out.insert(out.end(), iv.data(), iv.data() + iv.size());
  AppendPadded(*cipher_, plain, &out);
  return out;
}

Buffer CipherSuite::SealWithIv(Slice plain, Slice iv) const {
  if (!config_.enabled || cipher_ == nullptr) return plain.ToBuffer();
  Buffer out = LayOut(plain, iv);
  const size_t block = cipher_->block_size();
  CbcEncryptInPlace(*cipher_, out.data(), out.data() + block,
                    out.size() / block - 1);
  return out;
}

std::vector<Buffer> CipherSuite::SealWithIvs(
    const std::vector<Slice>& plains, const std::vector<Buffer>& ivs) const {
  TDB_CHECK(plains.size() == ivs.size(), "one IV per plaintext");
  std::vector<Buffer> out;
  out.reserve(plains.size());
  if (!config_.enabled || cipher_ == nullptr) {
    for (Slice plain : plains) out.push_back(plain.ToBuffer());
    return out;
  }
  for (size_t i = 0; i < plains.size(); i++) {
    out.push_back(LayOut(plains[i], ivs[i]));
  }
  // Two lanes, each a CBC chain working through one laid-out output behind
  // its IV. Both advance together through CbcEncryptBlocks2 by the blocks
  // the shorter one has left; a lane that finishes takes the next output,
  // so both stay busy until the last one. The chaining value of a lane is
  // always the block just before its position: the IV first, then the
  // ciphertext block it wrote last.
  const size_t block = cipher_->block_size();
  struct Lane {
    uint8_t* data = nullptr;
    size_t blocks = 0;
  };
  size_t next = 0;
  auto take = [&](Lane* lane) {
    if (next == out.size()) return false;
    Buffer& sealed = out[next++];
    *lane = {sealed.data() + block, sealed.size() / block - 1};
    return true;
  };
  Lane a, b;
  bool has_a = take(&a), has_b = take(&b);
  while (has_a && has_b) {
    const size_t n = std::min(a.blocks, b.blocks);
    if (!cipher_->CbcEncryptBlocks2({a.data - block, a.data, a.data},
                                    {b.data - block, b.data, b.data}, n)) {
      break;  // No two-chain kernel: everything below runs one at a time.
    }
    for (Lane* lane : {&a, &b}) {
      lane->data += n * block;
      lane->blocks -= n;
    }
    if (a.blocks == 0) has_a = take(&a);
    if (b.blocks == 0) has_b = take(&b);
  }
  // What is left (the last output's tail, or every output when the cipher
  // has no two-chain kernel) runs one chain at a time.
  auto finish = [&](const Lane& lane) {
    CbcEncryptInPlace(*cipher_, lane.data - block, lane.data, lane.blocks);
  };
  if (has_a) finish(a);
  if (has_b) finish(b);
  while (take(&a)) finish(a);
  return out;
}

Result<Buffer> CipherSuite::Open(Slice sealed) const {
  if (!config_.enabled || cipher_ == nullptr) return sealed.ToBuffer();
  size_t block = cipher_->block_size();
  if (sealed.size() < 2 * block) {
    return Status::Corruption("sealed chunk shorter than IV + one block");
  }
  Slice iv(sealed.data(), block);
  Slice cipher_text(sealed.data() + block, sealed.size() - block);
  return CbcDecrypt(*cipher_, iv, cipher_text);
}

size_t CipherSuite::SealedSize(size_t plain_size) const {
  if (!config_.enabled || cipher_ == nullptr) return plain_size;
  return cipher_->block_size() + CbcCiphertextSize(*cipher_, plain_size);
}

}  // namespace tdb::crypto
