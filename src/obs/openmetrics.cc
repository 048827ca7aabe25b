#include "obs/openmetrics.hh"

#include <cerrno>
#include <cstring>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/format.hh"
#include "util/logging.hh"

namespace suit::obs {

std::string
openMetricsName(const std::string &name)
{
    std::string out = "suit_";
    out.reserve(name.size() + 5);
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

std::string
renderOpenMetrics(const Snapshot &snap)
{
    std::string out;
    out.reserve(snap.metrics.size() * 96 + 16);
    for (const MetricValue &m : snap.metrics) {
        const std::string name = openMetricsName(m.name);
        switch (m.kind) {
          case MetricKind::Counter:
            out += "# TYPE " + name + " counter\n";
            out += util::sformat(
                "%s_total %llu\n", name.c_str(),
                static_cast<unsigned long long>(m.count));
            break;
          case MetricKind::Gauge:
            out += "# TYPE " + name + " gauge\n";
            out += util::sformat("%s %.17g\n", name.c_str(), m.value);
            break;
          case MetricKind::Histogram: {
            out += "# TYPE " + name + " histogram\n";
            const auto &bounds = m.histogram.bounds();
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < m.histogram.bucketCount();
                 ++b) {
                cumulative += m.histogram.count(b);
                const std::string le =
                    b < bounds.size()
                        ? util::sformat("%.17g", bounds[b])
                        : std::string("+Inf");
                out += util::sformat(
                    "%s_bucket{le=\"%s\"} %llu\n", name.c_str(),
                    le.c_str(),
                    static_cast<unsigned long long>(cumulative));
            }
            out += util::sformat(
                "%s_count %llu\n", name.c_str(),
                static_cast<unsigned long long>(
                    m.histogram.total()));
            out += util::sformat("%s_sum %.17g\n", name.c_str(), m.sum);
            break;
          }
        }
    }
    out += "# EOF\n";
    return out;
}

MetricsServer::MetricsServer(std::uint16_t port,
                             std::function<std::string()> render)
    : render_(std::move(render))
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        util::warn("--listen-metrics: socket() failed: %s",
                   std::strerror(errno));
        return;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        util::warn("--listen-metrics: cannot bind 127.0.0.1:%u: %s",
                   static_cast<unsigned>(port), std::strerror(errno));
        ::close(fd);
        return;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    thread_ = std::thread([this] { serve(); });
}

MetricsServer::~MetricsServer()
{
    stop();
}

void
MetricsServer::stop()
{
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
MetricsServer::serve()
{
    while (!stop_.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100 /* ms */);
        if (ready <= 0)
            continue; // timeout (re-check stop flag) or EINTR
        const int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0)
            continue;

        // Drain whatever request line arrived; the endpoint serves
        // the same document regardless of the path.
        char buf[1024];
        (void)::recv(client, buf, sizeof(buf), MSG_DONTWAIT);

        const std::string body = render_();
        const std::string header = util::sformat(
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; "
            "charset=utf-8\r\n"
            "Content-Length: %zu\r\n"
            "Connection: close\r\n\r\n",
            body.size());
        (void)!::write(client, header.data(), header.size());
        std::size_t off = 0;
        while (off < body.size()) {
            const ssize_t n = ::write(client, body.data() + off,
                                      body.size() - off);
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        // Count before close: a client that saw its connection shut
        // must also see the scrape counted.
        scrapes_.fetch_add(1, std::memory_order_relaxed);
        ::close(client);
    }
}

} // namespace suit::obs
