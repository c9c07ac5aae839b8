// TCP plumbing for the remote-fleet subsystem: endpoints, listening
// sockets, and deadline-bounded connects/accepts.
//
// Everything here is transport setup; once a connection exists it is handed
// to net::SocketChannel and the byte protocol of proc/wire.h takes over.
// All syscalls retry EINTR; all timeouts are poll()-based so a silent peer
// surfaces as DeadlineExceeded instead of a wedged engine.
//
// Platform support matches src/proc/: POSIX sockets (and fork for the
// runner daemon). RemoteFleetSupported() gates every entry point; on other
// platforms they return Unimplemented.

#ifndef AID_NET_SOCKET_H_
#define AID_NET_SOCKET_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "proc/wire.h"

#define AID_NET_SUPPORTED AID_PROC_SUPPORTED

namespace aid {

/// True when this build can speak TCP to aid_runner daemons (and host them).
constexpr bool RemoteFleetSupported() { return AID_NET_SUPPORTED != 0; }

/// One runner address. `host` is a numeric address or resolvable name.
struct Endpoint {
  std::string host;
  int port = 0;

  std::string ToString() const { return host + ":" + std::to_string(port); }
  bool operator==(const Endpoint& other) const {
    return host == other.host && port == other.port;
  }
};

/// Parses "host:port" ("127.0.0.1:7601", "runner7:7601"). The port must be
/// in [1, 65535]; the host must be non-empty. (IPv6 literals would need
/// bracket syntax; the parser rejects multi-colon strings explicitly rather
/// than mis-splitting them.)
Result<Endpoint> ParseEndpoint(std::string_view text);

/// Convenience over a whole fleet list; fails on the first bad entry.
Result<std::vector<Endpoint>> ParseEndpoints(
    const std::vector<std::string>& texts);

/// Opens a listening TCP socket bound to host:port (port 0 = ephemeral,
/// read the outcome with BoundPort). SO_REUSEADDR + CLOEXEC.
Result<int> ListenOn(const std::string& host, int port, int backlog);

/// The locally bound port of a listening socket.
Result<int> BoundPort(int listen_fd);

/// Accepts one connection within `timeout_ms` (<= 0 = block indefinitely).
/// DeadlineExceeded when nothing arrived; the accepted socket has CLOEXEC
/// and TCP_NODELAY set (frames are small; Nagle would serialize the
/// RUN_TRIAL/TRIAL_RESULT ping-pong into 40ms stalls).
Result<int> AcceptConnection(int listen_fd, int timeout_ms);

/// Connects to `endpoint` within `timeout_ms` (<= 0 = block indefinitely):
/// non-blocking connect + poll, then SO_ERROR is checked. Resolution goes
/// through getaddrinfo, so names work. Aborted when the peer refuses
/// (nothing listening), DeadlineExceeded on timeout. The socket has CLOEXEC
/// and TCP_NODELAY set.
Result<int> ConnectTo(const Endpoint& endpoint, int timeout_ms);

}  // namespace aid

#endif  // AID_NET_SOCKET_H_
