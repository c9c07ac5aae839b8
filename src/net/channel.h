// SocketChannel: the subject wire protocol over one TCP connection.
//
// The frames, deadlines, and failure vocabulary are exactly proc/wire.h's
// (writes go through the same EINTR-retrying, poll-bounded primitives and
// reads through the same buffered FrameReader); the only socket-specific
// behavior is ownership of the single full-duplex descriptor and mapping
// ECONNRESET to Aborted (handled in the shared primitives). A connection dropping mid-frame therefore classifies
// identically to a subject-host pipe closing: Aborted, "the peer died".

#ifndef AID_NET_CHANNEL_H_
#define AID_NET_CHANNEL_H_

#include <string_view>

#include "common/status.h"
#include "net/socket.h"
#include "proc/wire.h"

namespace aid {

class SocketChannel : public FrameChannel {
 public:
  /// Takes ownership of the connected socket `fd`.
  explicit SocketChannel(int fd) : fd_(fd) {}
  ~SocketChannel() override { Close(); }

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  Status Write(ProcMsgType type, std::string_view payload,
               int deadline_ms = 0) override;
  Result<ProcFrame> Read(int deadline_ms = 0) override;
  void Close() override;
  bool open() const override { return fd_ >= 0; }
  std::string_view transport() const override { return "socket"; }

  int fd() const { return fd_; }

 private:
  int fd_;
  FrameReader reader_;
};

}  // namespace aid

#endif  // AID_NET_CHANNEL_H_
