// Golden hashes of bytes that outlive the process: a training-state
// snapshot (what --save_state and --checkpoint_dir write, and what a
// later build must still restore) and a Messenger data frame (what the
// proc runtime puts on the wire, CRC trailer included). Any change to
// the container layout, the frame layout or the checksum shows up here
// as a changed hash; a deliberate format change must update them and
// say so.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "graph/synthetic.h"
#include "net/channel.h"
#include "net/local_channel.h"

namespace hetkg {
namespace {

/// FNV-1a over `bytes`, length first.
uint64_t HashBytes(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  };
  const uint64_t size = bytes.size();
  for (int i = 0; i < 8; ++i) mix_byte(static_cast<uint8_t>(size >> (8 * i)));
  for (char c : bytes) mix_byte(static_cast<uint8_t>(c));
  return h;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// One epoch of HET-KG-D on 1% of FB15k at dim 16, seed 7, with the
// launcher's batch and cache defaults; the snapshot covers the PS
// tables, AdaGrad state, cluster clocks, worker caches and samplers.
TEST(CheckpointGoldenTest, TrainStateSnapshot) {
  graph::SyntheticSpec spec = graph::Fb15kSpec();
  spec.num_triples = static_cast<size_t>(spec.num_triples * 0.01);
  spec.seed = 7;
  const graph::SyntheticDataset dataset =
      graph::GenerateDataset(spec).value();

  core::TrainerConfig config;
  config.dim = 16;
  config.batch_size = 64;
  config.cache_capacity = 256;
  config.seed = 7;
  auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                 dataset.graph, dataset.split.train)
                    .value();
  ASSERT_TRUE(engine->Train(1).ok());

  const std::string path = ::testing::TempDir() + "/golden-state-" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(engine->SaveTrainState(path).ok());
  const std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 3365831u);
  EXPECT_EQ(HashBytes(bytes), 0x23BDE7E944B4F386ULL)
      << "snapshot 0x" << std::hex << HashBytes(bytes);
}

// Data frames of several payload sizes (empty, shorter than one 16-byte
// block, exactly 64 bytes, and long with a ragged tail), as the peer's
// channel receives them.
TEST(FrameGoldenTest, MessengerDataFrames) {
  auto [near, far] = net::LocalChannel::CreatePair();
  net::Messenger messenger(near.get());
  std::string wire;
  for (const size_t size : {size_t{0}, size_t{5}, size_t{64}, size_t{4099}}) {
    std::string payload(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>((i * 131 + size) & 0xFF);
    }
    ASSERT_TRUE(messenger.Send(payload));
    std::string frame;
    ASSERT_EQ(far->Recv(&frame, 0), net::RecvStatus::kOk);
    ASSERT_EQ(frame.size(), size + net::kFrameOverheadBytes);
    wire += frame;
  }
  EXPECT_EQ(HashBytes(wire), 0x5A2BB177B42A6129ULL)
      << "frames 0x" << std::hex << HashBytes(wire);
}

}  // namespace
}  // namespace hetkg
