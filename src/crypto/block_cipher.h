#ifndef TDB_CRYPTO_BLOCK_CIPHER_H_
#define TDB_CRYPTO_BLOCK_CIPHER_H_

#include <cstdint>
#include <memory>

#include "common/slice.h"

namespace tdb::crypto {

/// Block ciphers available for chunk encryption. The paper's TDB-S
/// configuration uses 3DES; AES-128 is the "as secure but significantly
/// faster" alternative the paper alludes to. kNone disables encryption
/// (plain TDB, security off).
enum class CipherKind : uint8_t {
  kNone = 0,
  kDes3 = 1,
  kAes128 = 2,
};

/// One CBC encryption chain for BlockCipher::CbcEncryptBlocks2: blocks
/// read from `in`, chained from `iv`, written to `out`.
struct CbcChain {
  const uint8_t* iv;
  const uint8_t* in;
  uint8_t* out;
};

/// A raw block cipher: encrypts/decrypts exactly block_size() bytes.
/// Chaining and padding are layered on top in cbc.h.
class BlockCipher {
 public:
  virtual ~BlockCipher() = default;

  virtual size_t block_size() const = 0;
  virtual size_t key_size() const = 0;
  virtual void EncryptBlock(const uint8_t* in, uint8_t* out) const = 0;
  virtual void DecryptBlock(const uint8_t* in, uint8_t* out) const = 0;

  /// Optional whole-buffer CBC fast paths. A cipher with a batch kernel
  /// processes all `n_blocks` blocks (chaining from `iv`, PKCS#7 handled
  /// by the caller) and returns true; the default returns false and the
  /// caller falls back to the per-block virtual loop. Encryption may run
  /// in place (`in == out`); otherwise, and always for decryption, `in`
  /// and `out` must not overlap. Implementations must be bit-identical to
  /// the per-block path.
  virtual bool CbcEncryptBlocks(const uint8_t* iv, const uint8_t* in,
                                size_t n_blocks, uint8_t* out) const {
    (void)iv, (void)in, (void)n_blocks, (void)out;
    return false;
  }
  virtual bool CbcDecryptBlocks(const uint8_t* iv, const uint8_t* in,
                                size_t n_blocks, uint8_t* out) const {
    (void)iv, (void)in, (void)n_blocks, (void)out;
    return false;
  }

  /// Optional two-chain CBC encryption: advances two independent chains by
  /// `n_blocks` blocks each, interleaved so that one chain's block latency
  /// hides the other's. Same aliasing rules per chain as CbcEncryptBlocks;
  /// the two chains must not overlap each other. Returns false when the
  /// cipher has no such kernel.
  virtual bool CbcEncryptBlocks2(const CbcChain& a, const CbcChain& b,
                                 size_t n_blocks) const {
    (void)a, (void)b, (void)n_blocks;
    return false;
  }
};

/// Creates a keyed cipher; key must be exactly the cipher's key size
/// (24 bytes for 3DES, 16 for AES-128). Returns nullptr for kNone.
std::unique_ptr<BlockCipher> NewBlockCipher(CipherKind kind, Slice key);

/// Key size in bytes required by `kind` (0 for kNone).
size_t CipherKeySize(CipherKind kind);

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_BLOCK_CIPHER_H_
