#ifndef ISUM_OBS_EXPORT_H_
#define ISUM_OBS_EXPORT_H_

#include <string>

#include "common/status.h"

namespace isum::obs {

/// Writes `content` to `path` (helper shared by the bench drivers).
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace isum::obs

#endif  // ISUM_OBS_EXPORT_H_
