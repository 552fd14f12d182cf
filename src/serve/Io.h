// Shared socket I/O helpers for the serve transport (DESIGN.md §15).
//
// Every send/recv loop in serve/Client.cpp and serve/Server.cpp
// funnels through these two functions, so the EINTR contract lives in
// exactly one place: a benign signal delivered mid-transfer (SIGALRM
// from an interval timer, a stopped-and-continued process, a profiler
// tick) restarts the call instead of tearing down a healthy connection.
#pragma once

#include <cstddef>

#include <sys/types.h>

namespace cfd::serve {

/// Writes all `size` bytes to `fd` (MSG_NOSIGNAL), retrying short
/// writes and EINTR. False on EOF/error — the peer is gone.
bool sendAll(int fd, const void* data, std::size_t size);

/// One recv(2) retried on EINTR: > 0 bytes read, 0 on orderly EOF,
/// -1 on any other error.
ssize_t recvSome(int fd, void* data, std::size_t size);

} // namespace cfd::serve
