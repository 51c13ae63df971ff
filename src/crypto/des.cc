#include "crypto/des.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace tdb::crypto {

namespace {

// FIPS 46-3 tables. Entries are 1-based bit positions counted from the MSB,
// as in the standard. IP, FP and the E expansion have no table: IP and FP
// are bit-group swaps and E is a rotation (see the round function below).

constexpr uint8_t kPbox[32] = {16, 7,  20, 21, 29, 12, 28, 17, 1,  15, 23,
                               26, 5,  18, 31, 10, 2,  8,  24, 14, 32, 27,
                               3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr uint8_t kPc1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34,
                              26, 18, 10, 2,  59, 51, 43, 35, 27, 19, 11, 3,
                              60, 52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7,
                              62, 54, 46, 38, 30, 22, 14, 6,  61, 53, 45, 37,
                              29, 21, 13, 5,  28, 20, 12, 4};

constexpr uint8_t kPc2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                              23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                              41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                              44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr uint8_t kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2,
                                 1, 2, 2, 2, 2, 2, 2, 1};

constexpr uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

// Applies a bit permutation: bit i (1-based from MSB of an `in_bits`-wide
// value) of the result comes from position table[i] of the input.
constexpr uint64_t Permute(uint64_t in, int in_bits, const uint8_t* table,
                           int out_bits) {
  uint64_t out = 0;
  for (int i = 0; i < out_bits; i++) {
    out <<= 1;
    out |= (in >> (in_bits - table[i])) & 1;
  }
  return out;
}

// --- The round function ------------------------------------------------
// The E expansion feeds S-box b (0-based) the six bits of R starting at
// FIPS bit 4b, cyclically. With R held rotated right by 3 (`y` below),
// S-boxes 1, 3, 5 and 7 read their groups from the four bytes of y, and
// S-boxes 2, 4, 6 and 8 from the four bytes of y rotated left by 4. The
// round keys are pre-positioned to match (DesRoundKey), and the SP tables
// fuse each S-box with the P permutation and the same rotation, so a round
// is two XORs, one rotate and eight lookups. Halves stay rotated for all
// rounds; the rotation is applied after IP and undone before FP.

constexpr int kRot = 3;

struct SpTables {
  uint32_t sp[8][64];
};

constexpr SpTables BuildSpTables() {
  SpTables t{};
  for (int box = 0; box < 8; box++) {
    for (int six = 0; six < 64; six++) {
      int row = ((six & 0x20) >> 4) | (six & 1);
      int col = (six >> 1) & 0xf;
      uint32_t s_out = kSbox[box][row * 16 + col];
      // Place at the box's nibble (MSB-first), then apply P.
      uint32_t pre_p = s_out << (28 - 4 * box);
      t.sp[box][six] = std::rotr(
          static_cast<uint32_t>(Permute(pre_p, 32, kPbox, 32)), kRot);
    }
  }
  return t;
}

constexpr SpTables kSp = BuildSpTables();

// x ^= f(y, k) on rotated halves.
inline void Round(uint32_t& x, uint32_t y, const DesRoundKey& k) {
  const uint32_t u = y ^ k.s1357;
  const uint32_t t = std::rotl(y, 4) ^ k.s2468;
  x ^= kSp.sp[0][(u >> 24) & 0x3f] ^ kSp.sp[2][(u >> 16) & 0x3f] ^
       kSp.sp[4][(u >> 8) & 0x3f] ^ kSp.sp[6][u & 0x3f] ^
       kSp.sp[1][(t >> 24) & 0x3f] ^ kSp.sp[3][(t >> 16) & 0x3f] ^
       kSp.sp[5][(t >> 8) & 0x3f] ^ kSp.sp[7][t & 0x3f];
}

// IP and FP as five swaps of bit groups between the halves (each swap is
// an involution, so FP is the same swaps in reverse order).
inline void SwapBits(uint32_t& a, uint32_t& b, int shift, uint32_t mask) {
  const uint32_t t = ((a >> shift) ^ b) & mask;
  b ^= t;
  a ^= t << shift;
}

inline void InitialPermutation(uint32_t& l, uint32_t& r) {
  SwapBits(l, r, 4, 0x0f0f0f0f);
  SwapBits(l, r, 16, 0x0000ffff);
  SwapBits(r, l, 2, 0x33333333);
  SwapBits(r, l, 8, 0x00ff00ff);
  SwapBits(l, r, 1, 0x55555555);
}

inline void FinalPermutation(uint32_t& l, uint32_t& r) {
  SwapBits(l, r, 1, 0x55555555);
  SwapBits(r, l, 8, 0x00ff00ff);
  SwapBits(r, l, 2, 0x33333333);
  SwapBits(l, r, 16, 0x0000ffff);
  SwapBits(l, r, 4, 0x0f0f0f0f);
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

inline void StoreBe32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

// A block as its two big-endian 32-bit halves.
struct Block {
  uint32_t hi, lo;
};

inline Block Load(const uint8_t* p) { return {LoadBe32(p), LoadBe32(p + 4)}; }

inline void Store(Block b, uint8_t* p) {
  StoreBe32(b.hi, p);
  StoreBe32(b.lo, p + 4);
}

inline Block Xor(Block a, Block b) { return {a.hi ^ b.hi, a.lo ^ b.lo}; }

// Runs kLanes independent blocks through kPasses chained DES passes of 16
// rounds each (1 for DES, 3 for EDE), round keys `ks[16 * kPasses]`, with
// one IP before and one FP after. Between passes FP and IP cancel and only
// the halves swap. The lanes share nothing, so their rounds interleave and
// one lane's lookups overlap the other's.
template <int kPasses, int kLanes>
inline void Crypt(const DesRoundKey* ks, Block* blocks) {
  uint32_t l[kLanes], r[kLanes];
  for (int j = 0; j < kLanes; j++) {
    l[j] = blocks[j].hi;
    r[j] = blocks[j].lo;
    InitialPermutation(l[j], r[j]);
    l[j] = std::rotr(l[j], kRot);
    r[j] = std::rotr(r[j], kRot);
  }
  for (int pass = 0; pass < kPasses; pass++) {
    if (pass > 0) {
      for (int j = 0; j < kLanes; j++) std::swap(l[j], r[j]);
    }
    for (int i = 0; i < 16; i += 2) {
      for (int j = 0; j < kLanes; j++) Round(l[j], r[j], ks[i]);
      for (int j = 0; j < kLanes; j++) Round(r[j], l[j], ks[i + 1]);
    }
    ks += 16;
  }
  // Preoutput is (R16, L16).
  for (int j = 0; j < kLanes; j++) {
    uint32_t hi = std::rotl(r[j], kRot), lo = std::rotl(l[j], kRot);
    FinalPermutation(hi, lo);
    blocks[j] = {hi, lo};
  }
}

template <int kPasses>
inline void CryptBytes(const DesRoundKey* ks, const uint8_t* in,
                       uint8_t* out) {
  Block b = Load(in);
  Crypt<kPasses, 1>(ks, &b);
  Store(b, out);
}

uint32_t Rotl28(uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0fffffff;
}

// FIPS 46-3 key schedule, each subkey pre-positioned as a DesRoundKey.
void ExpandKey(const uint8_t* key, DesRoundKey out[16]) {
  uint64_t k = (static_cast<uint64_t>(LoadBe32(key)) << 32) | LoadBe32(key + 4);
  uint64_t cd = Permute(k, 64, kPc1, 56);
  uint32_t c = static_cast<uint32_t>(cd >> 28);
  uint32_t d = static_cast<uint32_t>(cd & 0x0fffffff);
  for (int round = 0; round < 16; round++) {
    c = Rotl28(c, kShifts[round]);
    d = Rotl28(d, kShifts[round]);
    uint64_t merged = (static_cast<uint64_t>(c) << 28) | d;
    uint64_t subkey = Permute(merged, 56, kPc2, 48);
    DesRoundKey& rk = out[round];
    for (int box = 0; box < 8; box++) {
      uint32_t six = static_cast<uint32_t>((subkey >> (42 - 6 * box)) & 0x3f);
      uint32_t& word = box % 2 == 0 ? rk.s1357 : rk.s2468;
      word |= six << (24 - 8 * (box / 2));
    }
  }
}

void Reverse(const DesRoundKey* in, size_t n, DesRoundKey* out) {
  for (size_t i = 0; i < n; i++) out[i] = in[n - 1 - i];
}

}  // namespace

Des::Des(Slice key) {
  TDB_CHECK(key.size() == kKeySize, "DES key must be 8 bytes");
  ExpandKey(key.data(), enc_);
  Reverse(enc_, 16, dec_);
}

void Des::EncryptBlock(const uint8_t* in, uint8_t* out) const {
  CryptBytes<1>(enc_, in, out);
}

void Des::DecryptBlock(const uint8_t* in, uint8_t* out) const {
  CryptBytes<1>(dec_, in, out);
}

TripleDes::TripleDes(Slice key) {
  TDB_CHECK(key.size() == kKeySize, "3DES key must be 24 bytes");
  DesRoundKey k[3][16];
  for (int i = 0; i < 3; i++) ExpandKey(key.data() + 8 * i, k[i]);
  // EDE: encrypt under k1, decrypt under k2, encrypt under k3.
  std::copy(k[0], k[0] + 16, enc_);
  Reverse(k[1], 16, enc_ + 16);
  std::copy(k[2], k[2] + 16, enc_ + 32);
  Reverse(enc_, 48, dec_);
}

void TripleDes::EncryptBlock(const uint8_t* in, uint8_t* out) const {
  CryptBytes<3>(enc_, in, out);
}

void TripleDes::DecryptBlock(const uint8_t* in, uint8_t* out) const {
  CryptBytes<3>(dec_, in, out);
}

bool TripleDes::CbcEncryptBlocks(const uint8_t* iv, const uint8_t* in,
                                 size_t n_blocks, uint8_t* out) const {
  Block chain = Load(iv);
  for (size_t i = 0; i < n_blocks; i++) {
    chain = Xor(Load(in + 8 * i), chain);
    Crypt<3, 1>(enc_, &chain);
    Store(chain, out + 8 * i);
  }
  return true;
}

bool TripleDes::CbcEncryptBlocks2(const CbcChain& a, const CbcChain& b,
                                  size_t n_blocks) const {
  Block chain[2] = {Load(a.iv), Load(b.iv)};
  for (size_t i = 0; i < n_blocks; i++) {
    chain[0] = Xor(Load(a.in + 8 * i), chain[0]);
    chain[1] = Xor(Load(b.in + 8 * i), chain[1]);
    Crypt<3, 2>(enc_, chain);
    Store(chain[0], a.out + 8 * i);
    Store(chain[1], b.out + 8 * i);
  }
  return true;
}

bool TripleDes::CbcDecryptBlocks(const uint8_t* iv, const uint8_t* in,
                                 size_t n_blocks, uint8_t* out) const {
  Block prev = Load(iv);
  size_t i = 0;
  for (; i + 2 <= n_blocks; i += 2) {
    Block c[2] = {Load(in + 8 * i), Load(in + 8 * i + 8)};
    Block p[2] = {c[0], c[1]};
    Crypt<3, 2>(dec_, p);
    Store(Xor(p[0], prev), out + 8 * i);
    Store(Xor(p[1], c[0]), out + 8 * i + 8);
    prev = c[1];
  }
  if (i < n_blocks) {
    Block p = Load(in + 8 * i);
    Crypt<3, 1>(dec_, &p);
    Store(Xor(p, prev), out + 8 * i);
  }
  return true;
}

}  // namespace tdb::crypto
