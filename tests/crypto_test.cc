#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "crypto/accel.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/cipher_suite.h"
#include "crypto/des.h"
#include "crypto/drbg.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace tdb::crypto {
namespace {

Buffer FromHex(const std::string& hex) {
  Buffer out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// ---------------------------------------------------------------- SHA-1

TEST(Sha1Test, FipsVectors) {
  EXPECT_EQ(Hash(HashKind::kSha1, Slice("")).ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Hash(HashKind::kSha1, Slice("abc")).ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(
      Hash(HashKind::kSha1,
           Slice("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) h.Update(Slice(chunk));
  EXPECT_EQ(h.Finish().ToHex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split++) {
    Sha1 h;
    h.Update(Slice(msg.substr(0, split)));
    h.Update(Slice(msg.substr(split)));
    EXPECT_EQ(h.Finish(), Hash(HashKind::kSha1, Slice(msg))) << split;
  }
}

TEST(Sha1Test, PaddingBoundaries) {
  // Lengths straddling the 55/56/63/64-byte padding edges must not crash
  // and must be distinct.
  Digest prev;
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    std::string msg(len, 'x');
    Digest d = Hash(HashKind::kSha1, Slice(msg));
    EXPECT_NE(d, prev);
    prev = d;
  }
}

// -------------------------------------------------------------- SHA-256

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(
      Hash(HashKind::kSha256, Slice("")).ToHex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Hash(HashKind::kSha256, Slice("abc")).ToHex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Hash(HashKind::kSha256,
           Slice("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; i++) h.Update(Slice(chunk));
  EXPECT_EQ(h.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ResetReusesHasher) {
  Sha256 h;
  h.Update(Slice("garbage"));
  h.Reset();
  h.Update(Slice("abc"));
  EXPECT_EQ(h.Finish().ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ----------------------------------------------------------------- HMAC

TEST(HmacTest, Rfc2202Sha1Vectors) {
  Buffer key1(20, 0x0b);
  EXPECT_EQ(Hmac::Mac(HashKind::kSha1, key1, Slice("Hi There")).ToHex(),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(Hmac::Mac(HashKind::kSha1, Slice("Jefe"),
                      Slice("what do ya want for nothing?"))
                .ToHex(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacTest, Rfc4231Sha256Vectors) {
  Buffer key1(20, 0x0b);
  EXPECT_EQ(
      Hmac::Mac(HashKind::kSha256, key1, Slice("Hi There")).ToHex(),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(
      Hmac::Mac(HashKind::kSha256, Slice("Jefe"),
                Slice("what do ya want for nothing?"))
          .ToHex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Buffer long_key(150, 0xaa);
  // Must not crash and must differ from using the truncated key directly.
  Digest a = Hmac::Mac(HashKind::kSha256, long_key, Slice("data"));
  Digest b = Hmac::Mac(HashKind::kSha256, Slice(long_key.data(), 64),
                       Slice("data"));
  EXPECT_NE(a, b);
}

TEST(HmacTest, KeySensitivity) {
  EXPECT_NE(Hmac::Mac(HashKind::kSha1, Slice("key1"), Slice("msg")),
            Hmac::Mac(HashKind::kSha1, Slice("key2"), Slice("msg")));
}

// ------------------------------------------------------------------ DES

TEST(DesTest, ClassicWorkedExample) {
  Des des(FromHex("133457799bbcdff1"));
  Buffer pt = FromHex("0123456789abcdef");
  uint8_t ct[8];
  des.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Slice(ct, 8)), "85e813540f0ab405");
  uint8_t back[8];
  des.DecryptBlock(ct, back);
  EXPECT_EQ(ToHex(Slice(back, 8)), "0123456789abcdef");
}

TEST(DesTest, NbsZeroVector) {
  Des des(FromHex("0101010101010101"));
  Buffer pt = FromHex("0000000000000000");
  uint8_t ct[8];
  des.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Slice(ct, 8)), "8ca64de9c1b123a7");
}

TEST(TripleDesTest, DegeneratesToDesWithEqualKeys) {
  Buffer key = FromHex("133457799bbcdff1");
  Buffer triple_key;
  for (int i = 0; i < 3; i++)
    triple_key.insert(triple_key.end(), key.begin(), key.end());
  TripleDes tdes(triple_key);
  Des des(key);
  Buffer pt = FromHex("0123456789abcdef");
  uint8_t ct3[8], ct1[8];
  tdes.EncryptBlock(pt.data(), ct3);
  des.EncryptBlock(pt.data(), ct1);
  EXPECT_EQ(ToHex(Slice(ct3, 8)), ToHex(Slice(ct1, 8)));
}

TEST(TripleDesTest, RoundtripRandomKeysAndBlocks) {
  Random rng(42);
  for (int trial = 0; trial < 50; trial++) {
    Buffer key, pt;
    rng.Fill(&key, TripleDes::kKeySize);
    rng.Fill(&pt, 8);
    TripleDes tdes(key);
    uint8_t ct[8], back[8];
    tdes.EncryptBlock(pt.data(), ct);
    tdes.DecryptBlock(ct, back);
    EXPECT_EQ(ToHex(Slice(back, 8)), ToHex(Slice(pt)));
    EXPECT_NE(ToHex(Slice(ct, 8)), ToHex(Slice(pt)));  // Sanity.
  }
}

TEST(TripleDesTest, NistSp80067ThreeKeyVector) {
  // NIST SP 800-67 Rev. 1 example (three distinct keys, ECB). A fused EDE
  // that swapped k1 and k3, or ran k2 forward, fails here while every
  // single-DES vector and the equal-keys test still pass.
  TripleDes tdes(FromHex("0123456789abcdef23456789abcdef01456789abcdef0123"));
  const std::string pt = "The qufck brown fox jump";
  uint8_t ct[24], back[24];
  for (int i = 0; i < 3; i++) {
    tdes.EncryptBlock(reinterpret_cast<const uint8_t*>(pt.data()) + 8 * i,
                      ct + 8 * i);
    tdes.DecryptBlock(ct + 8 * i, back + 8 * i);
  }
  EXPECT_EQ(ToHex(Slice(ct, 24)),
            "a826fd8ce53b855fcce21c8112256fe668d5c05dd9b6b900");
  EXPECT_EQ(std::string(back, back + 24), pt);
}

// Per-block EDE reference from three single-DES objects: the definition
// the fused 48-round kernel must reproduce bit for bit.
class ReferenceTripleDes {
 public:
  explicit ReferenceTripleDes(const Buffer& key)
      : k1_(Slice(key.data(), 8)),
        k2_(Slice(key.data() + 8, 8)),
        k3_(Slice(key.data() + 16, 8)) {}

  void Encrypt(const uint8_t* in, uint8_t* out) const {
    uint8_t a[8], b[8];
    k1_.EncryptBlock(in, a);
    k2_.DecryptBlock(a, b);
    k3_.EncryptBlock(b, out);
  }
  void Decrypt(const uint8_t* in, uint8_t* out) const {
    uint8_t a[8], b[8];
    k3_.DecryptBlock(in, a);
    k2_.EncryptBlock(a, b);
    k1_.DecryptBlock(b, out);
  }
  // CBC over an already padded plaintext, one block at a time.
  Buffer CbcEncrypt(Slice iv, const Buffer& padded) const {
    Buffer out(padded.size());
    const uint8_t* chain = iv.data();
    for (size_t off = 0; off < padded.size(); off += 8) {
      uint8_t x[8];
      for (int i = 0; i < 8; i++) x[i] = padded[off + i] ^ chain[i];
      Encrypt(x, out.data() + off);
      chain = out.data() + off;
    }
    return out;
  }

 private:
  Des k1_, k2_, k3_;
};

Buffer Pkcs7(Slice plain) {
  Buffer padded = plain.ToBuffer();
  const size_t pad = 8 - plain.size() % 8;
  padded.insert(padded.end(), pad, static_cast<uint8_t>(pad));
  return padded;
}

// The sizes CbcSizeTest covers.
constexpr size_t kCbcSizes[] = {0,  1,  7,   8,   9,   15,   16,
                                17, 100, 255, 256, 1000, 4096};

TEST(TripleDesTest, FusedKernelMatchesThreeDesReference) {
  Random rng(1867);
  for (int trial = 0; trial < 8; trial++) {
    Buffer key;
    rng.Fill(&key, TripleDes::kKeySize);
    TripleDes tdes(key);
    ReferenceTripleDes ref(key);

    // Block calls.
    for (int i = 0; i < 16; i++) {
      Buffer pt;
      rng.Fill(&pt, 8);
      uint8_t got[8], want[8];
      tdes.EncryptBlock(pt.data(), got);
      ref.Encrypt(pt.data(), want);
      ASSERT_EQ(ToHex(Slice(got, 8)), ToHex(Slice(want, 8)));
      tdes.DecryptBlock(pt.data(), got);
      ref.Decrypt(pt.data(), want);
      ASSERT_EQ(ToHex(Slice(got, 8)), ToHex(Slice(want, 8)));
    }

    // CBC hooks: encryption out of place and in place, decryption with
    // both an even and an odd block count (the two-block interleave and
    // its single-block tail).
    for (size_t size : kCbcSizes) {
      Buffer iv, plain;
      rng.Fill(&iv, 8);
      rng.Fill(&plain, size);
      const Buffer padded = Pkcs7(plain);
      const Buffer want = ref.CbcEncrypt(iv, padded);
      const size_t n = want.size() / 8;
      Buffer got(want.size());
      ASSERT_TRUE(tdes.CbcEncryptBlocks(iv.data(), padded.data(), n,
                                        got.data()));
      EXPECT_EQ(got, want) << size;
      Buffer in_place = padded;
      ASSERT_TRUE(tdes.CbcEncryptBlocks(iv.data(), in_place.data(), n,
                                        in_place.data()));
      EXPECT_EQ(in_place, want) << size;
      EXPECT_EQ(CbcEncrypt(tdes, iv, plain), want) << size;
      Buffer decrypted(want.size());
      ASSERT_TRUE(tdes.CbcDecryptBlocks(iv.data(), want.data(), n,
                                        decrypted.data()));
      EXPECT_EQ(decrypted, padded) << size;
      auto back = CbcDecrypt(tdes, iv, want);
      ASSERT_TRUE(back.ok()) << size;
      EXPECT_EQ(*back, plain) << size;
    }
  }
}

// The cipher key CipherSuite derives from its master secret (HMAC-SHA256
// of "tdb-enc" plus a block index, truncated). Part of the on-disk format:
// changing it would orphan every sealed image.
Buffer SuiteCipherKey(Slice master, size_t size) {
  Buffer label = Slice("tdb-enc").ToBuffer();
  label.push_back(0);
  Digest d = Hmac::Mac(HashKind::kSha256, master, label);
  return Buffer(d.data(), d.data() + size);
}

TEST(TripleDesTest, SealWithIvsMatchesThreeDesReference) {
  const Slice master("differential-master");
  CipherSuite suite(SecurityConfig::PaperTdbS(), master, Slice("iv-seed"));
  ReferenceTripleDes ref(SuiteCipherKey(master, TripleDes::kKeySize));
  Random rng(1868);
  // Odd and even batch counts, so both lanes start, swap buffers, and one
  // finishes alone; sizes mix so the lanes run out at different blocks.
  for (size_t count : {1u, 2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Buffer> plains_owned(count);
    std::vector<Slice> plains;
    std::vector<Buffer> ivs;
    for (size_t i = 0; i < count; i++) {
      rng.Fill(&plains_owned[i],
               kCbcSizes[rng.Uniform(std::size(kCbcSizes))]);
      plains.push_back(plains_owned[i]);
      ivs.push_back(suite.NextIv());
    }
    std::vector<Buffer> sealed = suite.SealWithIvs(plains, ivs);
    ASSERT_EQ(sealed.size(), count);
    for (size_t i = 0; i < count; i++) {
      Buffer want = ivs[i];
      Buffer ct = ref.CbcEncrypt(ivs[i], Pkcs7(plains[i]));
      want.insert(want.end(), ct.begin(), ct.end());
      EXPECT_EQ(sealed[i], want) << count << "/" << i;
      EXPECT_EQ(suite.SealWithIv(plains[i], ivs[i]), want)
          << count << "/" << i;
      auto opened = suite.Open(sealed[i]);
      ASSERT_TRUE(opened.ok()) << count << "/" << i;
      EXPECT_EQ(*opened, plains_owned[i]) << count << "/" << i;
    }
  }
}

// ------------------------------------------------------------------ AES

TEST(Aes128Test, Fips197AppendixC) {
  Aes128 aes(FromHex("000102030405060708090a0b0c0d0e0f"));
  Buffer pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Slice(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(ToHex(Slice(back, 16)), "00112233445566778899aabbccddeeff");
}

TEST(Aes128Test, Fips197AppendixB) {
  Aes128 aes(FromHex("2b7e151628aed2a6abf7158809cf4f3c"));
  Buffer pt = FromHex("3243f6a8885a308d313198a2e0370734");
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(ToHex(Slice(ct, 16)), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128Test, RoundtripRandom) {
  Random rng(43);
  for (int trial = 0; trial < 50; trial++) {
    Buffer key, pt;
    rng.Fill(&key, Aes128::kKeySize);
    rng.Fill(&pt, 16);
    Aes128 aes(key);
    uint8_t ct[16], back[16];
    aes.EncryptBlock(pt.data(), ct);
    aes.DecryptBlock(ct, back);
    EXPECT_EQ(ToHex(Slice(back, 16)), ToHex(Slice(pt)));
  }
}

// ------------------------------------------------------------------ CBC

class CbcSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CbcSizeTest, RoundtripBothCiphers) {
  size_t size = GetParam();
  Random rng(size + 1);
  Buffer plain;
  rng.Fill(&plain, size);

  for (CipherKind kind : {CipherKind::kDes3, CipherKind::kAes128}) {
    Buffer key, iv;
    rng.Fill(&key, CipherKeySize(kind));
    auto cipher = NewBlockCipher(kind, key);
    rng.Fill(&iv, cipher->block_size());

    Buffer ct = CbcEncrypt(*cipher, iv, plain);
    EXPECT_EQ(ct.size(), CbcCiphertextSize(*cipher, size));
    EXPECT_EQ(ct.size() % cipher->block_size(), 0u);

    auto back = CbcDecrypt(*cipher, iv, ct);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, plain);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CbcSizeTest,
                         ::testing::Values(0, 1, 7, 8, 9, 15, 16, 17, 100,
                                           255, 256, 1000, 4096));

TEST(CbcTest, RejectsUnalignedCiphertext) {
  Buffer key(16, 1);
  Aes128 aes(key);
  Buffer iv(16, 2);
  Buffer bad(17, 3);
  EXPECT_TRUE(CbcDecrypt(aes, iv, bad).status().IsCorruption());
  Buffer empty;
  EXPECT_TRUE(CbcDecrypt(aes, iv, empty).status().IsCorruption());
}

TEST(CbcTest, WrongIvCorruptsFirstBlockOnly) {
  Buffer key(16, 1), iv(16, 2), iv2(16, 3);
  Aes128 aes(key);
  Buffer plain(48, 0x55);
  Buffer ct = CbcEncrypt(aes, iv, plain);
  auto back = CbcDecrypt(aes, iv2, ct);
  // Either padding failure or a differing first block; never equality.
  if (back.ok()) {
    EXPECT_NE(*back, plain);
  }
}

// --------------------------------------------------------------- DRBG

TEST(DrbgTest, DeterministicFromSeed) {
  CtrDrbg a(Slice("seed")), b(Slice("seed")), c(Slice("other"));
  Buffer ba = a.Generate(100), bb = b.Generate(100), bc = c.Generate(100);
  EXPECT_EQ(ba, bb);
  EXPECT_NE(ba, bc);
}

TEST(DrbgTest, StreamAdvances) {
  CtrDrbg d(Slice("seed"));
  Buffer first = d.Generate(32), second = d.Generate(32);
  EXPECT_NE(first, second);
}

// --------------------------------------------------------- CipherSuite

TEST(CipherSuiteTest, SealOpenRoundtrip) {
  for (auto config : {SecurityConfig::PaperTdbS(), SecurityConfig::Modern()}) {
    CipherSuite suite(config, Slice("master-secret"), Slice("iv-seed"));
    Buffer plain;
    Random rng(7);
    rng.Fill(&plain, 333);
    Buffer sealed = suite.Seal(plain);
    EXPECT_EQ(sealed.size(), suite.SealedSize(plain.size()));
    EXPECT_NE(sealed, plain);
    auto back = suite.Open(sealed);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, plain);
  }
}

TEST(CipherSuiteTest, DisabledIsPassThrough) {
  CipherSuite suite(SecurityConfig::Disabled(), Slice(""), Slice(""));
  EXPECT_FALSE(suite.enabled());
  EXPECT_EQ(suite.hash_size(), 0u);
  Buffer plain = {1, 2, 3};
  Buffer sealed = suite.Seal(plain);
  EXPECT_EQ(sealed, plain);
  auto back = suite.Open(sealed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, plain);
  EXPECT_EQ(suite.HashData(plain).size(), 0u);
}

TEST(CipherSuiteTest, DifferentSecretsCannotOpen) {
  CipherSuite a(SecurityConfig::Modern(), Slice("secret-a"), Slice("iv"));
  CipherSuite b(SecurityConfig::Modern(), Slice("secret-b"), Slice("iv"));
  Buffer plain(100, 0x42);
  Buffer sealed = a.Seal(plain);
  auto opened = b.Open(sealed);
  // Wrong key: padding check usually fails; if it passes by chance the
  // plaintext must differ.
  if (opened.ok()) {
    EXPECT_NE(*opened, plain);
  }
}

TEST(CipherSuiteTest, MacIsKeyedAndDeterministic) {
  CipherSuite a(SecurityConfig::Modern(), Slice("secret-a"), Slice("iv"));
  CipherSuite a2(SecurityConfig::Modern(), Slice("secret-a"), Slice("iv2"));
  CipherSuite b(SecurityConfig::Modern(), Slice("secret-b"), Slice("iv"));
  EXPECT_EQ(a.Mac(Slice("anchor")), a2.Mac(Slice("anchor")));
  EXPECT_NE(a.Mac(Slice("anchor")), b.Mac(Slice("anchor")));
  EXPECT_NE(a.Mac(Slice("anchor")), a.Mac(Slice("anchor2")));
}

TEST(CipherSuiteTest, SealIsRandomizedPerCall) {
  CipherSuite suite(SecurityConfig::Modern(), Slice("s"), Slice("iv"));
  Buffer plain(64, 0x11);
  // Fresh IV per Seal: identical plaintexts produce different ciphertexts,
  // which is what makes the paper's traffic-analysis point work.
  EXPECT_NE(suite.Seal(plain), suite.Seal(plain));
}

TEST(CipherSuiteTest, HashMatchesUnderlyingAlgorithm) {
  CipherSuite suite(SecurityConfig::PaperTdbS(), Slice("s"), Slice("iv"));
  EXPECT_EQ(suite.HashData(Slice("abc")),
            Hash(HashKind::kSha1, Slice("abc")));
  EXPECT_EQ(suite.hash_size(), 20u);
}

// Sealed bytes of a fixed corpus under a fixed secret and IV seed. The
// digests were recorded before the fused 3DES kernel and the in-place seal
// path, and must never change: images written by any earlier build have to
// open. Seal() and SealWithIvs() over the same IV draws must both match.
TEST(CipherSuiteTest, SealedBytesPinnedAcrossReleases) {
  const struct {
    SecurityConfig config;
    const char* digest;
  } cases[] = {
      {SecurityConfig::PaperTdbS(),
       "7492ebab86f635142d5ea21f9a818b8857edd2ad4b922bfc14d6cb12f7cd84bd"},
      {SecurityConfig::Modern(),
       "1c831cafb59d5751f950d45f19b276286a10eac88da10320cbc2bfe493b6416d"},
  };
  for (const auto& c : cases) {
    std::vector<Buffer> corpus;
    Random rng(2002);
    for (size_t size : {0, 1, 7, 8, 9, 15, 16, 17, 100, 255, 256, 523, 1000,
                        4096}) {
      corpus.emplace_back();
      rng.Fill(&corpus.back(), size);
    }
    CipherSuite one(c.config, Slice("pinned-master-secret"),
                    Slice("pinned-iv-seed"));
    Sha256 h;
    for (const Buffer& plain : corpus) h.Update(one.Seal(plain));
    EXPECT_EQ(h.Finish().ToHex(), c.digest);

    CipherSuite batch(c.config, Slice("pinned-master-secret"),
                      Slice("pinned-iv-seed"));
    std::vector<Slice> plains(corpus.begin(), corpus.end());
    std::vector<Buffer> ivs;
    for (size_t i = 0; i < corpus.size(); i++) ivs.push_back(batch.NextIv());
    Sha256 hb;
    for (const Buffer& sealed : batch.SealWithIvs(plains, ivs)) {
      hb.Update(sealed);
    }
    EXPECT_EQ(hb.Finish().ToHex(), c.digest);
  }
}

// ------------------------------------------------- hardware dispatch

// Flips the runtime dispatch switch for a scope. On machines without the
// ISA extensions both settings resolve to the portable path, so these
// tests degrade to portable-vs-portable and still pass — that is exactly
// the CI forced-portable story.
class ScopedAccel {
 public:
  explicit ScopedAccel(bool on) { accel::SetEnabledForTesting(on); }
  ~ScopedAccel() { accel::SetEnabledForTesting(true); }
};

TEST(AccelTest, OverrideForcesPortableDispatch) {
  {
    ScopedAccel off(false);
    EXPECT_FALSE(accel::AesEnabled());
    EXPECT_FALSE(accel::ShaEnabled());
  }
  // Restored: enabled iff the CPU actually has the extensions.
  EXPECT_EQ(accel::AesEnabled(), accel::CpuSupportsAes());
  EXPECT_EQ(accel::ShaEnabled(), accel::CpuSupportsSha());
}

// Every SHA vector the suite checks, hashed under both dispatch modes —
// including splits that exercise the buffered-partial-block path around
// the multi-block fast path.
TEST(AccelTest, ShaIdenticalAcrossDispatch) {
  std::string long_msg;
  Random rng(2026);
  for (int i = 0; i < 5000; i++) long_msg.push_back(static_cast<char>(rng.Next()));
  const std::string msgs[] = {
      "", "abc", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      std::string(55, 'x'), std::string(56, 'x'), std::string(64, 'x'),
      std::string(65, 'x'), std::string(1000, 'a'), long_msg};
  for (HashKind kind : {HashKind::kSha1, HashKind::kSha256}) {
    for (const std::string& msg : msgs) {
      Digest hw, sw;
      {
        ScopedAccel on(true);
        hw = Hash(kind, Slice(msg));
      }
      {
        ScopedAccel off(false);
        sw = Hash(kind, Slice(msg));
      }
      EXPECT_EQ(hw, sw) << "len " << msg.size();
      for (size_t split : {size_t{1}, size_t{63}, size_t{64}, size_t{100}}) {
        if (split > msg.size()) continue;
        ScopedAccel on(true);
        Sha256 h256;
        Sha1 h1;
        Hasher& h = (kind == HashKind::kSha1) ? static_cast<Hasher&>(h1)
                                              : static_cast<Hasher&>(h256);
        h.Update(Slice(msg.substr(0, split)));
        h.Update(Slice(msg.substr(split)));
        EXPECT_EQ(h.Finish(), sw) << "split " << split;
      }
    }
  }
}

TEST(AccelTest, AesBlockIdenticalAcrossDispatch) {
  Random rng(77);
  for (int trial = 0; trial < 50; trial++) {
    Buffer key, pt;
    rng.Fill(&key, Aes128::kKeySize);
    rng.Fill(&pt, 16);
    Aes128 aes(key);
    uint8_t hw_ct[16], sw_ct[16], hw_back[16], sw_back[16];
    {
      ScopedAccel on(true);
      aes.EncryptBlock(pt.data(), hw_ct);
    }
    {
      ScopedAccel off(false);
      aes.EncryptBlock(pt.data(), sw_ct);
      // Cross-mode: decrypt the hardware ciphertext on the portable path.
      aes.DecryptBlock(hw_ct, sw_back);
    }
    {
      ScopedAccel on(true);
      aes.DecryptBlock(sw_ct, hw_back);
    }
    EXPECT_EQ(ToHex(Slice(hw_ct, 16)), ToHex(Slice(sw_ct, 16)));
    EXPECT_EQ(ToHex(Slice(hw_back, 16)), ToHex(Slice(pt)));
    EXPECT_EQ(ToHex(Slice(sw_back, 16)), ToHex(Slice(pt)));
  }
}

TEST(AccelTest, CbcIdenticalAcrossDispatch) {
  Random rng(78);
  for (size_t size : {0u, 1u, 15u, 16u, 17u, 100u, 255u, 256u, 1000u, 4096u}) {
    Buffer key, iv, plain;
    rng.Fill(&key, Aes128::kKeySize);
    rng.Fill(&plain, size);
    Aes128 aes(key);
    rng.Fill(&iv, aes.block_size());
    Buffer hw_ct, sw_ct;
    {
      ScopedAccel on(true);
      hw_ct = CbcEncrypt(aes, iv, plain);
    }
    {
      ScopedAccel off(false);
      sw_ct = CbcEncrypt(aes, iv, plain);
      auto back = CbcDecrypt(aes, iv, hw_ct);  // Cross-mode decrypt.
      ASSERT_TRUE(back.ok()) << size;
      EXPECT_EQ(*back, plain) << size;
    }
    EXPECT_EQ(hw_ct, sw_ct) << size;
    ScopedAccel on(true);
    auto back = CbcDecrypt(aes, iv, sw_ct);
    ASSERT_TRUE(back.ok()) << size;
    EXPECT_EQ(*back, plain) << size;
  }
}

TEST(AccelTest, SuiteSealedUnderHardwareOpensUnderPortable) {
  // End-to-end cross-compatibility: a chunk sealed with hardware crypto
  // must open on a portable-only machine, and vice versa — the on-disk
  // format cannot depend on dispatch.
  for (auto config : {SecurityConfig::PaperTdbS(), SecurityConfig::Modern()}) {
    Buffer plain;
    Random rng(9);
    rng.Fill(&plain, 777);
    Buffer sealed_hw, sealed_sw;
    {
      ScopedAccel on(true);
      CipherSuite suite(config, Slice("master"), Slice("iv-seed"));
      sealed_hw = suite.Seal(plain);
    }
    {
      ScopedAccel off(false);
      CipherSuite suite(config, Slice("master"), Slice("iv-seed"));
      sealed_sw = suite.Seal(plain);
      // Same secret, same DRBG seed, same draw sequence: the sealed bytes
      // must match exactly (the DRBG itself runs on AES).
      EXPECT_EQ(sealed_hw, sealed_sw);
      auto opened = suite.Open(sealed_hw);
      ASSERT_TRUE(opened.ok());
      EXPECT_EQ(*opened, plain);
    }
    ScopedAccel on(true);
    CipherSuite suite(config, Slice("master"), Slice("iv-seed"));
    auto opened = suite.Open(sealed_sw);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(*opened, plain);
  }
}

}  // namespace
}  // namespace tdb::crypto
