#ifndef TDB_CRYPTO_CBC_H_
#define TDB_CRYPTO_CBC_H_

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/block_cipher.h"

namespace tdb::crypto {

/// CBC mode with PKCS#7 padding over any BlockCipher. The padding is what
/// produces the per-chunk "padding for block encryption" storage overhead
/// the paper measures for TDB-S.

/// Ciphertext length for a plaintext of `plain_size` bytes (padded up to the
/// next whole block, IV not included).
size_t CbcCiphertextSize(const BlockCipher& cipher, size_t plain_size);

/// Appends `plain` and its PKCS#7 padding to `out`, leaving `out` ready for
/// CbcEncryptInPlace over the appended CbcCiphertextSize bytes.
void AppendPadded(const BlockCipher& cipher, Slice plain, Buffer* out);

/// CBC-encrypts the `n_blocks` whole blocks at `data` in place, chaining
/// from `iv` (one block). Uses the cipher's batch hook when it has one.
void CbcEncryptInPlace(const BlockCipher& cipher, const uint8_t* iv,
                       uint8_t* data, size_t n_blocks);

/// Encrypts `plain` under `iv` (must be one block). Output = padded
/// ciphertext; the caller stores the IV alongside.
Buffer CbcEncrypt(const BlockCipher& cipher, Slice iv, Slice plain);

/// Decrypts and strips padding. Returns Corruption on malformed input or
/// bad padding (which, combined with the Merkle check above it, surfaces
/// tampering).
Result<Buffer> CbcDecrypt(const BlockCipher& cipher, Slice iv, Slice cipher_text);

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_CBC_H_
