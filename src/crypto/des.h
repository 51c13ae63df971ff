#ifndef TDB_CRYPTO_DES_H_
#define TDB_CRYPTO_DES_H_

#include <cstdint>

#include "crypto/block_cipher.h"

namespace tdb::crypto {

/// One DES round key, pre-positioned for the round function: the 48-bit
/// FIPS subkey as its eight six-bit S-box groups, one group per byte, split
/// into the groups for S1/S3/S5/S7 and for S2/S4/S6/S8 (most significant
/// byte first). A round is then two XORs with these words and eight table
/// lookups, with no per-round bit shuffling of the key.
struct DesRoundKey {
  uint32_t s1357 = 0;
  uint32_t s2468 = 0;
};

/// Single DES (FIPS 46-3) — building block for TripleDes; exposed on its own
/// for test-vector validation only. 8-byte key (parity bits ignored),
/// 8-byte block.
class Des final : public BlockCipher {
 public:
  static constexpr size_t kBlockSize = 8;
  static constexpr size_t kKeySize = 8;

  explicit Des(Slice key);

  size_t block_size() const override { return kBlockSize; }
  size_t key_size() const override { return kKeySize; }
  void EncryptBlock(const uint8_t* in, uint8_t* out) const override;
  void DecryptBlock(const uint8_t* in, uint8_t* out) const override;

 private:
  DesRoundKey enc_[16];  // Round keys in encryption order...
  DesRoundKey dec_[16];  // ...and reversed, for decryption.
};

/// Triple DES in EDE mode with a 24-byte key (three independent DES keys),
/// the cipher used by the paper's TDB-S configuration.
///
/// The three DES passes run fused as one 48-round pass with a single
/// initial and final permutation: between passes the final permutation of
/// one and the initial permutation of the next cancel, leaving only the
/// half swap. Output is bit-identical to E(k3, D(k2, E(k1, x))) computed
/// with three separate Des objects. The CBC hooks keep the whole chain in
/// one call (no virtual call per block); decryption, which has no chain
/// dependence, runs two blocks interleaved, and CbcEncryptBlocks2 runs two
/// independent encryption chains the same way.
class TripleDes final : public BlockCipher {
 public:
  static constexpr size_t kBlockSize = 8;
  static constexpr size_t kKeySize = 24;

  explicit TripleDes(Slice key);

  size_t block_size() const override { return kBlockSize; }
  size_t key_size() const override { return kKeySize; }
  void EncryptBlock(const uint8_t* in, uint8_t* out) const override;
  void DecryptBlock(const uint8_t* in, uint8_t* out) const override;

  bool CbcEncryptBlocks(const uint8_t* iv, const uint8_t* in, size_t n_blocks,
                        uint8_t* out) const override;
  bool CbcDecryptBlocks(const uint8_t* iv, const uint8_t* in, size_t n_blocks,
                        uint8_t* out) const override;
  bool CbcEncryptBlocks2(const CbcChain& a, const CbcChain& b,
                         size_t n_blocks) const override;

 private:
  DesRoundKey enc_[48];  // k1 forward, k2 reversed, k3 forward.
  DesRoundKey dec_[48];  // enc_ reversed: k3 reversed, k2 forward, k1 reversed.
};

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_DES_H_
