#include "net/channel.h"

#if AID_NET_SUPPORTED
#include <unistd.h>
#endif

namespace aid {

Status SocketChannel::Write(ProcMsgType type, std::string_view payload,
                            int deadline_ms) {
  if (fd_ < 0) return Status::Internal("socket channel: closed");
  // Sockets buffer finitely just like pipes: a peer that stops draining
  // must surface as DeadlineExceeded, so deadline writes go through the
  // poll-bounded path.
  return WriteFrameDeadline(fd_, type, payload, deadline_ms);
}

Result<ProcFrame> SocketChannel::Read(int deadline_ms) {
  if (fd_ < 0) return Status::Internal("socket channel: closed");
  return reader_.Read(fd_, deadline_ms);
}

void SocketChannel::Close() {
#if AID_NET_SUPPORTED
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

}  // namespace aid
