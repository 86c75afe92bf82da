#include "common/file_util.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace s64v
{

namespace
{

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what + ": " + std::strerror(errno);
}

bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
atomicWriteFile(const std::string &path, std::string_view data,
                std::string *err)
{
    // The temp file must live in the target's directory: rename(2) is
    // only atomic within one filesystem.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setErr(err, "open " + tmp);
        return false;
    }
    bool ok = writeAll(fd, data.data(), data.size());
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (!ok)
        setErr(err, "write " + tmp);
    if (::close(fd) != 0 && ok) {
        setErr(err, "close " + tmp);
        ok = false;
    }
    if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
        setErr(err, "rename " + tmp + " -> " + path);
        ok = false;
    }
    if (!ok)
        ::unlink(tmp.c_str());
    return ok;
}

} // namespace s64v
