#include <limits>

#include "codec/encoding.h"
#include "codec/kv_keys.h"
#include "codec/log_codec.h"
#include "codec/row_codec.h"
#include "codec/value_codec.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace txrep::codec {
namespace {

using rel::Value;

TEST(EncodingTest, Varint64RoundTrip) {
  for (uint64_t v : std::initializer_list<uint64_t>{
           0, 1, 127, 128, 300, uint64_t{1} << 32,
           std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    AppendVarint64(buf, v);
    std::string_view view = buf;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(&view, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(view.empty());
  }
}

TEST(EncodingTest, VarintUnderflowFails) {
  std::string buf;
  AppendVarint64(buf, 1ULL << 40);
  buf.pop_back();
  std::string_view view = buf;
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&view, &v));
}

TEST(EncodingTest, Fixed64AndDouble) {
  std::string buf;
  AppendFixed64(buf, 0xDEADBEEFCAFEF00DULL);
  AppendDouble(buf, -123.456);
  std::string_view view = buf;
  uint64_t u;
  double d;
  ASSERT_TRUE(GetFixed64(&view, &u));
  ASSERT_TRUE(GetDouble(&view, &d));
  EXPECT_EQ(u, 0xDEADBEEFCAFEF00DULL);
  EXPECT_DOUBLE_EQ(d, -123.456);
}

TEST(EncodingTest, LengthPrefixedBinarySafe) {
  std::string payload("\x00\x01\xff", 3);
  std::string buf;
  AppendLengthPrefixed(buf, payload);
  std::string_view view = buf;
  std::string_view out;
  ASSERT_TRUE(GetLengthPrefixed(&view, &out));
  EXPECT_EQ(out, payload);
}

TEST(EncodingTest, ZigZag) {
  for (int64_t v : std::initializer_list<int64_t>{
           0, 1, -1, 63, -64, std::numeric_limits<int64_t>::max(),
           std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(ValueCodecTest, RoundTripAllTypes) {
  for (const Value& v :
       {Value::Null(), Value::Int(-42), Value::Int(1LL << 60),
        Value::Real(3.14159), Value::Real(-0.0), Value::Str(""),
        Value::Str("hello _%! world")}) {
    std::string buf;
    AppendValue(buf, v);
    std::string_view view = buf;
    Value decoded;
    ASSERT_TRUE(GetValue(&view, &decoded));
    EXPECT_EQ(decoded, v) << v.ToString();
    EXPECT_TRUE(view.empty());
  }
}

TEST(ValueCodecTest, RejectsBadTag) {
  std::string buf = "\x09";
  std::string_view view = buf;
  Value v;
  EXPECT_FALSE(GetValue(&view, &v));
}

TEST(ValueCodecTest, KeyEncodeIntIsDecimal) {
  EXPECT_EQ(KeyEncodeValue(Value::Int(100)), "100");
  EXPECT_EQ(KeyEncodeValue(Value::Int(-7)), "-7");
}

TEST(ValueCodecTest, KeyEncodeStringEscapesSeparators) {
  const std::string enc = KeyEncodeValue(Value::Str("a_b c!"));
  EXPECT_EQ(enc.find('_'), std::string::npos);
  EXPECT_EQ(enc.find(' '), std::string::npos);
  EXPECT_EQ(enc.find('!'), std::string::npos);
  EXPECT_EQ(enc, "a%5Fb%20c%21");
}

TEST(ValueCodecTest, KeyEncodeInjectivePerType) {
  EXPECT_NE(KeyEncodeValue(Value::Str("a_b")), KeyEncodeValue(Value::Str("a%5Fb")));
  EXPECT_NE(KeyEncodeValue(Value::Real(1.0)), KeyEncodeValue(Value::Real(1.0000001)));
}

TEST(KvKeysTest, PaperLayout) {
  EXPECT_EQ(RowKey("ITEM", Value::Int(1)), "ITEM_1");
  EXPECT_EQ(HashIndexKey("ITEM", "COST", Value::Int(100)), "ITEM_COST_100");
}

TEST(KvKeysTest, UnderscoredIdentifiersCannotCollide) {
  // ORDER_LINE.QTY vs ORDER.LINE_QTY must produce distinct keys.
  EXPECT_NE(HashIndexKey("ORDER_LINE", "QTY", Value::Int(1)),
            HashIndexKey("ORDER", "LINE_QTY", Value::Int(1)));
  // Row key of table "T" pk "A_1" (string) vs hash key of T.A value 1.
  EXPECT_NE(RowKey("T", Value::Str("A_1")),
            HashIndexKey("T", "A", Value::Int(1)));
}

TEST(KvKeysTest, BlinkKeysUseReservedPrefix) {
  EXPECT_EQ(BlinkNodeKey("ITEM", "I_COST", 7), "!b_ITEM_I%5FCOST_7");
  EXPECT_EQ(BlinkMetaKey("ITEM", "I_COST"), "!bmeta_ITEM_I%5FCOST");
}

TEST(KvKeysTest, ClassifyKeyHandlesUnderscoredIdentifiers) {
  // Every identifier and value below contains '_' (or '!'); escaping keeps
  // the separators countable.
  EXPECT_EQ(ClassifyKey(RowKey("ORDER_LINE", Value::Int(7))), KeyClass::kRow);
  EXPECT_EQ(ClassifyKey(RowKey("T", Value::Str("A_1_!b"))), KeyClass::kRow);
  EXPECT_EQ(ClassifyKey(RowKey("!bmeta_X", Value::Int(-3))), KeyClass::kRow);
  EXPECT_EQ(ClassifyKey(HashIndexKey("NEW_ORDER", "NO_D_KEY", Value::Int(1))),
            KeyClass::kHashIndex);
  EXPECT_EQ(ClassifyKey(HashIndexKey("T", "A", Value::Str("x_y"))),
            KeyClass::kHashIndex);
  EXPECT_EQ(ClassifyKey(HashIndexKey("T", "C", Value::Real(1.5e300))),
            KeyClass::kHashIndex);
  EXPECT_EQ(ClassifyKey(BlinkNodeKey("STOCK", "S_QUANTITY", 12)),
            KeyClass::kBlinkNode);
  EXPECT_EQ(ClassifyKey(BlinkMetaKey("STOCK", "S_QUANTITY")),
            KeyClass::kBlinkMeta);
  EXPECT_STREQ(KeyClassName(KeyClass::kHashIndex), "hash");
  EXPECT_STREQ(KeyClassName(KeyClass::kRow), "row");
}

TEST(RowCodecTest, RoundTrip) {
  rel::Row row = {Value::Int(1), Value::Str("x"), Value::Null(),
                  Value::Real(2.5)};
  Result<rel::Row> decoded = DecodeRow(EncodeRow(row));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
}

TEST(RowCodecTest, EmptyRow) {
  Result<rel::Row> decoded = DecodeRow(EncodeRow({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RowCodecTest, TrailingBytesAreCorruption) {
  std::string bytes = EncodeRow({Value::Int(1)});
  bytes.push_back('x');
  EXPECT_TRUE(DecodeRow(bytes).status().IsCorruption());
}

TEST(RowCodecTest, TruncationIsCorruption) {
  std::string bytes = EncodeRow({Value::Str("hello")});
  EXPECT_TRUE(DecodeRow(std::string_view(bytes).substr(0, bytes.size() - 2))
                  .status()
                  .IsCorruption());
}

TEST(PostingsCodecTest, SortsAndDedupes) {
  std::string bytes = EncodePostings({"b", "a", "b", "c"});
  Result<std::vector<std::string>> decoded = DecodePostings(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PostingsCodecTest, EmptyList) {
  Result<std::vector<std::string>> decoded = DecodePostings(EncodePostings({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(LogCodecTest, BatchRoundTrip) {
  rel::LogTransaction t1;
  t1.lsn = 5;
  t1.commit_micros = 123456789;
  t1.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, "ITEM", Value::Int(1),
                              {Value::Int(1), Value::Str("a")}});
  t1.ops.push_back(rel::LogOp{rel::LogOpType::kDelete, "ITEM", Value::Int(2),
                              {}});
  rel::LogTransaction t2;
  t2.lsn = 6;
  t2.ops.push_back(rel::LogOp{rel::LogOpType::kUpdate, "B", Value::Str("k"),
                              {Value::Str("k"), Value::Real(2.0)}});

  Result<std::vector<rel::LogTransaction>> decoded =
      DecodeLogBatch(EncodeLogBatch({t1, t2}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].lsn, 5u);
  EXPECT_EQ((*decoded)[0].commit_micros, 123456789);
  ASSERT_EQ((*decoded)[0].ops.size(), 2u);
  EXPECT_EQ((*decoded)[0].ops[0], t1.ops[0]);
  EXPECT_EQ((*decoded)[0].ops[1], t1.ops[1]);
  EXPECT_EQ((*decoded)[1].ops[0], t2.ops[0]);
}

TEST(LogCodecTest, CorruptionDetected) {
  rel::LogTransaction t;
  t.lsn = 1;
  t.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, "T", Value::Int(1),
                             {Value::Int(1)}});
  std::string bytes = EncodeLogBatch({t});
  bytes.push_back('x');
  EXPECT_TRUE(DecodeLogBatch(bytes).status().IsCorruption());
  EXPECT_TRUE(DecodeLogBatch(std::string_view(bytes).substr(0, 3))
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace txrep::codec
