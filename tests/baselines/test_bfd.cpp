#include "baselines/bfd.hpp"

#include <gtest/gtest.h>

namespace glap::baselines {
namespace {

TEST(Bfd, PerfectFitUsesMinimumBins) {
  // Four VMs of half a PM each -> exactly two bins.
  const Resources cap{100.0, 100.0};
  std::vector<Resources> vms(4, Resources{50.0, 50.0});
  EXPECT_EQ(bfd_bin_count(vms, cap), 2u);
}

TEST(Bfd, SingleLargeItemPerBin) {
  const Resources cap{100.0, 100.0};
  std::vector<Resources> vms(3, Resources{60.0, 10.0});
  EXPECT_EQ(bfd_bin_count(vms, cap), 3u);
}

TEST(Bfd, DecreasingOrderPacksTightly) {
  const Resources cap{10.0, 10.0};
  // Items 6,5,4,3,2 on CPU (mem negligible): BFD gives 6+4, 5+3+2 -> 2.
  std::vector<Resources> vms{{6, 1}, {5, 1}, {4, 1}, {3, 1}, {2, 1}};
  EXPECT_EQ(bfd_bin_count(vms, cap), 2u);
}

TEST(Bfd, MemoryCanBeTheBindingResource) {
  const Resources cap{100.0, 10.0};
  std::vector<Resources> vms(4, Resources{10.0, 6.0});
  EXPECT_EQ(bfd_bin_count(vms, cap), 4u);
}

TEST(Bfd, EmptyInputUsesNoBins) {
  EXPECT_EQ(bfd_bin_count(std::vector<Resources>{}, {10.0, 10.0}), 0u);
}

TEST(Bfd, OversizedVmRejected) {
  EXPECT_THROW(
      (void)bfd_bin_count({Resources{11.0, 1.0}}, Resources{10.0, 10.0}),
      precondition_error);
}

TEST(Bfd, ZeroCapacityRejected) {
  EXPECT_THROW(
      (void)bfd_bin_count({Resources{1.0, 1.0}}, Resources{0.0, 10.0}),
      precondition_error);
}

TEST(Bfd, DataCenterConvenienceMatchesManual) {
  cloud::DataCenter dc(4, 8, cloud::DataCenterConfig{});
  for (cloud::VmId v = 0; v < 8; ++v)
    dc.place(v, static_cast<cloud::PmId>(v / 2));
  std::vector<Resources> demands(8, Resources{0.5, 0.5});
  dc.observe_demands(demands);
  std::vector<Resources> usages;
  for (cloud::VmId v = 0; v < 8; ++v)
    usages.push_back(dc.vm_current_usage(v));
  EXPECT_EQ(bfd_bin_count(dc),
            bfd_bin_count(usages, dc.config().pm_spec.capacity()));
}

TEST(Bfd, NeverBeatsTotalLoadLowerBound) {
  const Resources cap{10.0, 10.0};
  std::vector<Resources> vms;
  double total_cpu = 0.0;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Resources vm{rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)};
    total_cpu += vm.cpu;
    vms.push_back(vm);
  }
  const auto lower_bound =
      static_cast<std::size_t>(std::ceil(total_cpu / cap.cpu));
  EXPECT_GE(bfd_bin_count(vms, cap), lower_bound);
}

}  // namespace
}  // namespace glap::baselines
