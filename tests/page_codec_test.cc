#include "storage/page_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <utility>

#include "exec/exact.h"
#include "workload/generators.h"

namespace tcq {
namespace {

Schema Mixed() {
  return Schema({{"i", DataType::kInt64, 0},
                 {"d", DataType::kDouble, 0},
                 {"s", DataType::kString, 8}});
}

// A mixed int64/double/string relation (0–8-byte strings) in 100-byte
// blocks of four tuples whose last block is partial.
Result<Relation> MakeMixedRelation() {
  auto rel = Relation::Create("mixed", Mixed(), /*block_bytes=*/100);
  if (!rel.ok()) return rel;
  for (int i = 0; i < 23; ++i) {
    rel->AppendUnchecked({int64_t{7 * i - 50}, 0.5 * i - 3.0,
                          std::string(static_cast<size_t>(i % 9),
                                      static_cast<char>('a' + i % 26))});
  }
  return rel;
}

std::string TempDir() {
  auto dir = std::filesystem::temp_directory_path() / "tcq_codec_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(TupleCodecTest, RoundTripMixedTypes) {
  Schema schema = Mixed();
  Tuple t{int64_t{-42}, 3.25, std::string("hi")};
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeTuple(t, schema, &bytes).ok());
  EXPECT_EQ(bytes.size(), 24u);  // 8 + 8 + 8
  auto back = DecodeTuple(bytes, 0, schema);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(CompareTuples(*back, t), 0);
}

TEST(TupleCodecTest, ExtremeValues) {
  Schema schema = Mixed();
  Tuple t{std::numeric_limits<int64_t>::min(), -0.0,
          std::string("abcdefgh")};  // full-width string
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeTuple(t, schema, &bytes).ok());
  auto back = DecodeTuple(bytes, 0, schema);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<int64_t>((*back)[0]),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(std::get<std::string>((*back)[2]), "abcdefgh");
}

TEST(TupleCodecTest, RejectsInvalidTuple) {
  Schema schema = Mixed();
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(EncodeTuple({int64_t{1}}, schema, &bytes).ok());
}

TEST(TupleCodecTest, DecodePastEndFails) {
  Schema schema = Mixed();
  std::vector<uint8_t> tiny(10, 0);
  EXPECT_FALSE(DecodeTuple(tiny, 0, schema).ok());
}

TEST(PageCodecTest, RoundTripPartialPage) {
  Schema schema = Mixed();  // 24 bytes/tuple
  Block block;
  block.tuples.push_back(Tuple{int64_t{1}, 1.5, std::string("a")});
  block.tuples.push_back(Tuple{int64_t{2}, 2.5, std::string("bb")});
  auto page = EncodePage(block, schema, 128);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 128u);
  auto back = DecodePage(*page, 2, schema);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->tuples.size(), 2u);
  EXPECT_EQ(CompareTuples(back->tuples[1], block.tuples[1]), 0);
}

TEST(PageCodecTest, RejectsOverfullBlock) {
  Schema schema = Mixed();
  Block block;
  for (int i = 0; i < 10; ++i) {
    block.tuples.push_back(Tuple{int64_t{i}, 0.0, std::string()});
  }
  EXPECT_FALSE(EncodePage(block, schema, 128).ok());  // 240 > 128
}

TEST(RelationFileTest, RoundTripPaperRelation) {
  auto w = MakeSelectionWorkload(2000, 77);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  ASSERT_TRUE(rel.ok());
  std::string path = TempDir() + "/r1.tcq";
  ASSERT_TRUE(SaveRelation(**rel, path).ok());

  auto loaded = LoadRelation(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), "r1");
  EXPECT_EQ(loaded->NumTuples(), 10000);
  EXPECT_EQ(loaded->NumBlocks(), 2000);
  EXPECT_EQ(loaded->blocking_factor(), 5);
  // Every tuple identical, block by block.
  for (int64_t b = 0; b < loaded->NumBlocks(); ++b) {
    BlockView orig = (*rel)->ViewBlock(b);
    BlockView copy = loaded->ViewBlock(b);
    ASSERT_EQ(orig.rows().size(), copy.rows().size()) << b;
    for (size_t i = 0; i < orig.rows().size(); ++i) {
      ASSERT_EQ(CompareTuples(orig.rows()[i], copy.rows()[i]), 0);
    }
  }
}

TEST(PageChecksumTest, DeterministicAndSensitiveToEveryByte) {
  std::vector<uint8_t> page(64, 0xab);
  const uint64_t sum = PageChecksum(page);
  EXPECT_EQ(sum, PageChecksum(page));  // pure function of the bytes
  for (size_t i = 0; i < page.size(); ++i) {
    std::vector<uint8_t> flipped = page;
    flipped[i] ^= 0x01;
    EXPECT_NE(PageChecksum(flipped), sum) << "byte " << i;
  }
  EXPECT_NE(PageChecksum({}), sum);
}

TEST(RelationFileTest, CorruptedPageFailsWithDataLoss) {
  auto w = MakeSelectionWorkload(50, 11);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  ASSERT_TRUE(rel.ok());
  std::string path = TempDir() + "/corrupt.tcq";
  ASSERT_TRUE(SaveRelation(**rel, path).ok());

  // Flip one payload byte of the last page (the final 8 bytes are its
  // stored checksum). v2 readers must refuse the file with kDataLoss.
  std::vector<uint8_t> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  ASSERT_GT(bytes.size(), 9u);
  bytes[bytes.size() - 9] ^= 0xff;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  auto loaded = LoadRelation(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(RelationFileTest, VersionOneFileStillLoads) {
  // A v1 file written by hand: no per-page checksums. One int64 column,
  // one block of one tuple (value 7), 8-byte pages.
  std::vector<uint8_t> out;
  auto put_u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  auto put_u64 = [&out](uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  for (char c : {'T', 'C', 'Q', 'F'}) out.push_back(static_cast<uint8_t>(c));
  put_u32(1);  // version 1
  put_u32(2);  // name length
  out.push_back('v');
  out.push_back('1');
  put_u32(1);  // one column
  put_u32(1);  // column name length
  out.push_back('i');
  put_u32(0);  // DataType::kInt64
  put_u32(0);  // width
  put_u32(8);  // block_bytes
  put_u64(1);  // num_blocks
  put_u64(1);  // num_tuples
  put_u32(1);  // tuples in block 0
  put_u64(7);  // the page: one int64
  std::string path = TempDir() + "/v1.tcq";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
  }
  auto loaded = LoadRelation(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name(), "v1");
  ASSERT_EQ(loaded->NumTuples(), 1);
  EXPECT_EQ(std::get<int64_t>(loaded->ViewBlock(0).rows()[0][0]), 7);
}

TEST(ColumnarPageCodecTest, RoundTripPartialPage) {
  Schema schema = Mixed();  // 24 bytes/tuple
  Block block;
  block.tuples.push_back(Tuple{int64_t{-1}, -0.0, std::string("a")});
  block.tuples.push_back(Tuple{int64_t{2}, 2.5, std::string("bbbbbbbb")});
  auto page = EncodePageColumnar(block, schema, 128);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 128u);
  auto back = DecodePageColumnar(*page, 2, schema);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->tuples.size(), 2u);
  EXPECT_EQ(CompareTuples(back->tuples[0], block.tuples[0]), 0);
  EXPECT_EQ(CompareTuples(back->tuples[1], block.tuples[1]), 0);
}

TEST(ColumnarPageCodecTest, ColumnMajorByteOrder) {
  // Two int64 columns, two tuples: the page must hold column 0's values
  // first ({1, 3}), then column 1's ({2, 4}) — not row-major {1,2,3,4}.
  Schema schema({{"a", DataType::kInt64, 0}, {"b", DataType::kInt64, 0}});
  Block block;
  block.tuples.push_back(Tuple{int64_t{1}, int64_t{2}});
  block.tuples.push_back(Tuple{int64_t{3}, int64_t{4}});
  auto page = EncodePageColumnar(block, schema, 64);
  ASSERT_TRUE(page.ok());
  auto u64_at = [&page](size_t off) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>((*page)[off + static_cast<size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  EXPECT_EQ(u64_at(0), 1u);
  EXPECT_EQ(u64_at(8), 3u);
  EXPECT_EQ(u64_at(16), 2u);
  EXPECT_EQ(u64_at(24), 4u);
}

// Every version round-trips two inputs row for row: the paper relation,
// and a mixed int64/double/string relation (0–8-byte strings) in 100-byte
// blocks whose last block is partial.
TEST(RelationFileTest, ExplicitVersionRoundTrips) {
  auto w = MakeSelectionWorkload(50, 23);
  ASSERT_TRUE(w.ok());
  auto paper = w->catalog.Find("r1");
  ASSERT_TRUE(paper.ok());
  auto mixed = MakeMixedRelation();
  ASSERT_TRUE(mixed.ok());
  ASSERT_EQ(mixed->blocking_factor(), 4);
  ASSERT_EQ(mixed->ViewBlock(mixed->NumBlocks() - 1).num_rows(), 3);
  const std::pair<std::string, const Relation*> inputs[] = {
      {"explicit", paper->get()}, {"mixed", &*mixed}};
  for (const auto& [label, rel] : inputs) {
    for (uint32_t version : {1u, 2u, 3u}) {
      std::string path =
          TempDir() + "/v" + std::to_string(version) + "_" + label + ".tcq";
      ASSERT_TRUE(SaveRelationAtVersion(*rel, path, version).ok())
          << label << " " << version;
      auto loaded = LoadRelation(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(loaded->NumTuples(), rel->NumTuples()) << label << version;
      ASSERT_EQ(loaded->NumBlocks(), rel->NumBlocks()) << label << version;
      for (int64_t b = 0; b < loaded->NumBlocks(); ++b) {
        BlockView orig = rel->ViewBlock(b);
        BlockView copy = loaded->ViewBlock(b);
        ASSERT_EQ(orig.rows().size(), copy.rows().size());
        for (size_t i = 0; i < orig.rows().size(); ++i) {
          ASSERT_EQ(CompareTuples(orig.rows()[i], copy.rows()[i]), 0)
              << label << " version " << version << " block " << b;
        }
      }
    }
  }
  // v1 files carry no checksums, so the three files differ in size.
  EXPECT_LT(std::filesystem::file_size(TempDir() + "/v1_explicit.tcq"),
            std::filesystem::file_size(TempDir() + "/v2_explicit.tcq"));
  EXPECT_EQ(std::filesystem::file_size(TempDir() + "/v2_explicit.tcq"),
            std::filesystem::file_size(TempDir() + "/v3_explicit.tcq"));
}

// Whichever version wrote the file, every loaded block encodes to the same
// TCQF v3 column page as its source block, byte for byte, partial last
// block included.
TEST(RelationFileTest, EveryVersionLoadsByteEqualColumnPages) {
  auto rel = MakeMixedRelation();
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->blocking_factor(), 4);
  ASSERT_EQ(rel->ViewBlock(rel->NumBlocks() - 1).num_rows(), 3);
  for (uint32_t version : {1u, 2u, 3u}) {
    std::string path =
        TempDir() + "/v" + std::to_string(version) + "_pages.tcq";
    ASSERT_TRUE(SaveRelationAtVersion(*rel, path, version).ok()) << version;
    auto loaded = LoadRelation(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->block_bytes(), rel->block_bytes()) << version;
    ASSERT_EQ(loaded->NumBlocks(), rel->NumBlocks()) << version;
    for (int64_t b = 0; b < rel->NumBlocks(); ++b) {
      auto want = EncodePageColumnar(*rel->ViewBlock(b).raw(), rel->schema(),
                                     rel->block_bytes());
      auto got = EncodePageColumnar(*loaded->ViewBlock(b).raw(),
                                    loaded->schema(), loaded->block_bytes());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want) << "version " << version << " block " << b;
    }
  }
}

TEST(RelationFileTest, ConvertRoundTripsAcrossVersions) {
  auto w = MakeSelectionWorkload(40, 31);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  ASSERT_TRUE(rel.ok());
  std::string v2 = TempDir() + "/convert_v2.tcq";
  std::string v3 = TempDir() + "/convert_v3.tcq";
  std::string back2 = TempDir() + "/convert_back_v2.tcq";
  ASSERT_TRUE(SaveRelationAtVersion(**rel, v2, 2).ok());
  ASSERT_TRUE(ConvertRelationFile(v2, v3, 3).ok());
  ASSERT_TRUE(ConvertRelationFile(v3, back2, 2).ok());

  auto from_v3 = LoadRelation(v3);
  ASSERT_TRUE(from_v3.ok()) << from_v3.status().ToString();
  auto from_back = LoadRelation(back2);
  ASSERT_TRUE(from_back.ok()) << from_back.status().ToString();
  ASSERT_EQ(from_v3->NumTuples(), (*rel)->NumTuples());
  ASSERT_EQ(from_back->NumTuples(), (*rel)->NumTuples());
  for (int64_t b = 0; b < (*rel)->NumBlocks(); ++b) {
    BlockView orig = (*rel)->ViewBlock(b);
    for (size_t i = 0; i < orig.rows().size(); ++i) {
      ASSERT_EQ(
          CompareTuples(orig.rows()[i], from_v3->ViewBlock(b).rows()[i]), 0);
      ASSERT_EQ(
          CompareTuples(orig.rows()[i], from_back->ViewBlock(b).rows()[i]),
          0);
    }
  }
}

TEST(RelationFileTest, CorruptedColumnarPageFailsWithDataLoss) {
  auto w = MakeSelectionWorkload(50, 13);
  ASSERT_TRUE(w.ok());
  auto rel = w->catalog.Find("r1");
  ASSERT_TRUE(rel.ok());
  std::string path = TempDir() + "/corrupt_v3.tcq";
  ASSERT_TRUE(SaveRelationAtVersion(**rel, path, 3).ok());

  std::vector<uint8_t> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  ASSERT_GT(bytes.size(), 9u);
  bytes[bytes.size() - 9] ^= 0xff;  // payload byte, not the checksum
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  auto loaded = LoadRelation(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // A converter pointed at the corrupt file must surface the same error,
  // never silently rewrite garbage.
  EXPECT_EQ(
      ConvertRelationFile(path, TempDir() + "/never_written.tcq", 2).code(),
      StatusCode::kDataLoss);
}

// A file whose page holds a NaN — written by another tool, since every
// encoder validates — fails to load, at every checksummed version, with
// an error naming the column, rather than entering a relation whose sorts
// it would break.
TEST(RelationFileTest, NaNInAPageFailsToLoadNamingItsColumn) {
  Schema schema({{"id", DataType::kInt64, 0}, {"score", DataType::kDouble, 0}});
  constexpr int kBlockBytes = 32;  // one page of two tuples
  auto rel = Relation::Create("nan", schema, kBlockBytes);
  ASSERT_TRUE(rel.ok());
  const double marker = 1234.5;
  ASSERT_TRUE(rel->Append({int64_t{1}, 0.5}).ok());
  ASSERT_TRUE(rel->Append({int64_t{2}, marker}).ok());
  for (uint32_t version : {2u, 3u}) {
    std::string path = TempDir() + "/nan_v" + std::to_string(version) + ".tcq";
    ASSERT_TRUE(SaveRelationAtVersion(*rel, path, version).ok()) << version;
    std::vector<uint8_t> bytes;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 0, SEEK_END);
      bytes.resize(static_cast<size_t>(std::ftell(f)));
      std::fseek(f, 0, SEEK_SET);
      ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    // The file ends with the only page and its checksum. Overwrite the
    // marker with a NaN and re-sign the page, so only the value is wrong.
    const size_t page_at = bytes.size() - 8 - kBlockBytes;
    std::vector<uint8_t> page(bytes.begin() + static_cast<ptrdiff_t>(page_at),
                              bytes.end() - 8);
    uint8_t marker_bytes[8];
    std::memcpy(marker_bytes, &marker, sizeof(marker));
    auto it = std::search(page.begin(), page.end(), std::begin(marker_bytes),
                          std::end(marker_bytes));
    ASSERT_NE(it, page.end()) << version;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(&*it, &nan, sizeof(nan));
    std::copy(page.begin(), page.end(),
              bytes.begin() + static_cast<ptrdiff_t>(page_at));
    const uint64_t sum = PageChecksum(page);
    for (int i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(sum >> (8 * i));
    }
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    auto loaded = LoadRelation(path);
    ASSERT_FALSE(loaded.ok()) << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << version;
    EXPECT_NE(loaded.status().message().find("'score'"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(RelationFileTest, LoadRejectsGarbage) {
  std::string path = TempDir() + "/garbage.tcq";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a tcqf file at all", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadRelation(path).ok());
  EXPECT_FALSE(LoadRelation(TempDir() + "/missing.tcq").ok());
}

TEST(CatalogFileTest, RoundTripAndQuery) {
  auto w = MakeIntersectionWorkload(5000, 88);
  ASSERT_TRUE(w.ok());
  std::string dir = TempDir() + "/catalog";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveCatalog(w->catalog, dir).ok());

  auto loaded = LoadCatalog(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Names().size(), 2u);
  // The loaded catalog answers the same query identically.
  auto original = ExactCount(w->query, w->catalog);
  auto reloaded = ExactCount(w->query, *loaded);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*original, *reloaded);
  EXPECT_EQ(*reloaded, 5000);
}

TEST(CatalogFileTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadCatalog(TempDir() + "/definitely_missing_dir").ok());
}

}  // namespace
}  // namespace tcq
