#include "net/gateway.h"

#include "net/codec.h"

namespace datacell::net {

Result<std::unique_ptr<TcpEgress>> TcpEgress::Connect(const std::string& host,
                                                      uint16_t port) {
  ASSIGN_OR_RETURN(TcpStream stream, TcpStream::Connect(host, port));
  return std::unique_ptr<TcpEgress>(new TcpEgress(std::move(stream)));
}

core::Emitter::Sink TcpEgress::MakeSink() {
  return [this](const Table& batch) -> Status {
    if (!header_sent_) {
      Codec codec(batch.schema());
      RETURN_NOT_OK(stream_.WriteAll(codec.EncodeSchemaHeader() + "\n"));
      header_sent_ = true;
    }
    Codec codec(batch.schema());
    ASSIGN_OR_RETURN(std::string payload, codec.EncodeTable(batch));
    return stream_.WriteAll(payload);
  };
}

Status TcpEgress::Finish() { return stream_.ShutdownWrite(); }

}  // namespace datacell::net
