#include "obs/export.h"

#include <fstream>

namespace isum::obs {

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << content;
  out.flush();
  if (!out.good()) {
    return Status::Internal("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace isum::obs
