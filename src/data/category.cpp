#include "data/category.h"

#include <array>
#include <string>
#include <vector>

namespace tsufail::data {
namespace {

struct CategoryInfo {
  Category category;
  std::string_view name;         // canonical (Table II) spelling
  FailureClass cls;
  bool on_tsubame2;
  bool on_tsubame3;
  bool gpu_related;
};

constexpr std::array<CategoryInfo, 29> kCategoryTable = {{
    // category, name, class, T2, T3, gpu
    {Category::kBoot, "Boot", FailureClass::kSoftware, true, false, false},
    {Category::kCpu, "CPU", FailureClass::kHardware, true, true, false},
    {Category::kDisk, "Disk", FailureClass::kHardware, true, true, false},
    {Category::kDown, "Down", FailureClass::kUnknown, true, false, false},
    {Category::kFan, "FAN", FailureClass::kHardware, true, false, false},
    {Category::kGpu, "GPU", FailureClass::kHardware, true, true, true},
    {Category::kInfiniband, "IB", FailureClass::kHardware, true, false, false},
    {Category::kMemory, "Memory", FailureClass::kHardware, true, true, false},
    {Category::kNetwork, "Network", FailureClass::kHardware, true, false, false},
    {Category::kOtherHw, "OtherHW", FailureClass::kHardware, true, false, false},
    {Category::kOtherSw, "OtherSW", FailureClass::kSoftware, true, false, false},
    {Category::kPbs, "PBS", FailureClass::kSoftware, true, false, false},
    {Category::kPsu, "PSU", FailureClass::kHardware, true, false, false},
    {Category::kRack, "Rack", FailureClass::kHardware, true, false, false},
    {Category::kSsd, "SSD", FailureClass::kHardware, true, false, false},
    {Category::kSystemBoard, "System Board", FailureClass::kHardware, true, false, false},
    {Category::kVm, "VM", FailureClass::kSoftware, true, false, false},
    {Category::kCrc, "CRC", FailureClass::kHardware, false, true, false},
    {Category::kGpuDriver, "GPUDriver", FailureClass::kSoftware, false, true, true},
    {Category::kIpMotherboard, "IP Motherboard", FailureClass::kHardware, false, true, false},
    {Category::kLedFrontPanel, "Led Front Panel", FailureClass::kHardware, false, true, false},
    {Category::kLustre, "Lustre", FailureClass::kSoftware, false, true, false},
    {Category::kOmniPath, "Omni-Path", FailureClass::kHardware, false, true, false},
    {Category::kPowerBoard, "Power-Board", FailureClass::kHardware, false, true, false},
    {Category::kRibbonCable, "Ribbon Cable", FailureClass::kHardware, false, true, false},
    {Category::kSoftware, "Software", FailureClass::kSoftware, false, true, false},
    {Category::kSxm2Cable, "SXM2_Cable", FailureClass::kHardware, false, true, false},
    {Category::kSxm2Board, "SXM2-Board", FailureClass::kHardware, false, true, false},
    {Category::kUnknown, "Unknown", FailureClass::kUnknown, false, true, false},
}};

const CategoryInfo& info(Category category) noexcept {
  for (const auto& row : kCategoryTable) {
    if (row.category == category) return row;
  }
  return kCategoryTable.back();  // unreachable for valid enum values
}

/// Longest normalized name a category or alias has ("cyclicredundancycheck"
/// is 21); a longer key matches nothing.
constexpr std::size_t kMaxKey = 24;

/// Lowercase ASCII alphanumerics of `name` (the C locale's isalnum), the
/// matching key.  Writes at most kMaxKey of them to `out` and returns how
/// many `name` holds in all.
std::size_t normalize(std::string_view name, char* out) noexcept {
  std::size_t size = 0;
  for (char c : name) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      if (size < kMaxKey) out[size] = c;
      ++size;
    }
  }
  return size;
}

struct CategoryKey {
  std::string key;
  Category category;
};

/// Every accepted spelling, normalized once: the Table II names in table
/// order, then the aliases seen in raw logs and in the paper's prose.
const std::vector<CategoryKey>& category_keys() {
  static const std::vector<CategoryKey> keys = [] {
    std::vector<CategoryKey> out;
    for (const auto& row : kCategoryTable) {
      char buf[kMaxKey];
      const std::size_t size = normalize(row.name, buf);
      out.push_back({std::string(buf, size), row.category});
    }
    const CategoryKey aliases[] = {
        {"infiniband", Category::kInfiniband},
        {"fan", Category::kFan},
        {"powersupplyunit", Category::kPsu},
        {"portablebatchsystem", Category::kPbs},
        {"virtualmachine", Category::kVm},
        {"systemboard", Category::kSystemBoard},
        {"omnipath", Category::kOmniPath},
        {"powerboard", Category::kPowerBoard},
        {"sxm2cable", Category::kSxm2Cable},
        {"sxm2board", Category::kSxm2Board},
        {"ipmotherboard", Category::kIpMotherboard},
        {"ip", Category::kIpMotherboard},
        {"ledfrontpanel", Category::kLedFrontPanel},
        {"cyclicredundancycheck", Category::kCrc},
        {"gpudriverrelated", Category::kGpuDriver},
        {"driver", Category::kGpuDriver},
    };
    for (const auto& alias : aliases) out.push_back(alias);
    return out;
  }();
  return keys;
}

}  // namespace

std::string_view to_string(Category category) noexcept { return info(category).name; }

std::string_view to_string(FailureClass cls) noexcept {
  switch (cls) {
    case FailureClass::kHardware: return "hardware";
    case FailureClass::kSoftware: return "software";
    case FailureClass::kUnknown: return "unknown";
  }
  return "unknown";
}

FailureClass classify(Category category) noexcept { return info(category).cls; }

bool is_gpu_related(Category category) noexcept { return info(category).gpu_related; }

bool valid_for(Category category, Machine machine) noexcept {
  const auto& row = info(category);
  return machine == Machine::kTsubame2 ? row.on_tsubame2 : row.on_tsubame3;
}

std::span<const Category> categories_for(Machine machine) noexcept {
  static const auto t2 = [] {
    std::vector<Category> v;
    for (const auto& row : kCategoryTable)
      if (row.on_tsubame2) v.push_back(row.category);
    return v;
  }();
  static const auto t3 = [] {
    std::vector<Category> v;
    for (const auto& row : kCategoryTable)
      if (row.on_tsubame3) v.push_back(row.category);
    return v;
  }();
  return machine == Machine::kTsubame2 ? std::span<const Category>(t2)
                                       : std::span<const Category>(t3);
}

Result<Category> parse_category(std::string_view name) {
  char buf[kMaxKey];
  const std::size_t size = normalize(name, buf);
  if (size == 0)
    return Error(ErrorKind::kParse, "empty category name");
  if (size <= kMaxKey) {
    const std::string_view key(buf, size);
    for (const auto& entry : category_keys()) {
      if (entry.key == key) return entry.category;
    }
  }
  return Error(ErrorKind::kNotFound, "unknown failure category: '" + std::string(name) + "'");
}

}  // namespace tsufail::data
