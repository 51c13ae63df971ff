#include "crypto/cbc.h"

#include <cstring>

#include "common/check.h"

namespace tdb::crypto {

size_t CbcCiphertextSize(const BlockCipher& cipher, size_t plain_size) {
  size_t block = cipher.block_size();
  return (plain_size / block + 1) * block;  // PKCS#7 always adds >= 1 byte.
}

void AppendPadded(const BlockCipher& cipher, Slice plain, Buffer* out) {
  const size_t block = cipher.block_size();
  const size_t pad = block - (plain.size() % block);
  out->insert(out->end(), plain.data(), plain.data() + plain.size());
  out->insert(out->end(), pad, static_cast<uint8_t>(pad));
}

void CbcEncryptInPlace(const BlockCipher& cipher, const uint8_t* iv,
                       uint8_t* data, size_t n_blocks) {
  if (cipher.CbcEncryptBlocks(iv, data, n_blocks, data)) return;
  const size_t block = cipher.block_size();
  const uint8_t* chain = iv;
  for (size_t off = 0; off < n_blocks * block; off += block) {
    uint8_t x[32];
    for (size_t i = 0; i < block; i++) x[i] = data[off + i] ^ chain[i];
    cipher.EncryptBlock(x, data + off);
    chain = data + off;
  }
}

Buffer CbcEncrypt(const BlockCipher& cipher, Slice iv, Slice plain) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  Buffer out;
  out.reserve(CbcCiphertextSize(cipher, plain.size()));
  AppendPadded(cipher, plain, &out);
  CbcEncryptInPlace(cipher, iv.data(), out.data(), out.size() / block);
  return out;
}

Result<Buffer> CbcDecrypt(const BlockCipher& cipher, Slice iv,
                          Slice cipher_text) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  if (cipher_text.size() == 0 || cipher_text.size() % block != 0) {
    return Status::Corruption("ciphertext not block-aligned");
  }

  Buffer out(cipher_text.size());
  if (!cipher.CbcDecryptBlocks(iv.data(), cipher_text.data(),
                               cipher_text.size() / block, out.data())) {
    uint8_t chain[32];
    std::memcpy(chain, iv.data(), block);
    for (size_t off = 0; off < cipher_text.size(); off += block) {
      cipher.DecryptBlock(cipher_text.data() + off, out.data() + off);
      for (size_t i = 0; i < block; i++) out[off + i] ^= chain[i];
      std::memcpy(chain, cipher_text.data() + off, block);
    }
  }

  uint8_t pad = out.back();
  if (pad == 0 || pad > block || pad > out.size()) {
    return Status::Corruption("bad CBC padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); i++) {
    if (out[i] != pad) return Status::Corruption("bad CBC padding");
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace tdb::crypto
