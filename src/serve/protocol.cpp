#include "serve/protocol.h"

#include <sstream>
#include <utility>

#include "data/log_io.h"
#include "stream/alerts.h"

namespace tsufail::serve {
namespace {

/// First whitespace-delimited token; `rest` gets everything after the
/// separating spaces (empty if none).
std::string_view take_token(std::string_view& rest) {
  std::size_t start = rest.find_first_not_of(' ');
  if (start == std::string_view::npos) {
    rest = {};
    return {};
  }
  std::size_t end = rest.find(' ', start);
  std::string_view token = rest.substr(start, end == std::string_view::npos ? end : end - start);
  rest = end == std::string_view::npos ? std::string_view{} : rest.substr(end + 1);
  std::size_t next = rest.find_first_not_of(' ');
  rest = next == std::string_view::npos ? std::string_view{} : rest.substr(next);
  return token;
}

void err(std::string& out, const Error& error) {
  std::string message = error.to_string();
  for (char& c : message)
    if (c == '\n' || c == '\r') c = ' ';
  out += "ERR ";
  out += message;
  out += '\n';
}

void err(std::string& out, std::string_view message) {
  err(out, Error(ErrorKind::kValidation, std::string(message)));
}

/// "OK <header> bytes <n>\n" followed by exactly n payload bytes.
void frame(std::string& out, std::string_view header, std::string_view payload) {
  out += "OK ";
  out += header;
  out += " bytes ";
  out += std::to_string(payload.size());
  out += '\n';
  out += payload;
}

std::string render_stats(const std::string& tenant, const TenantStats& stats) {
  std::ostringstream os;
  os << "tenant: " << tenant << '\n'
     << "epoch: " << stats.epoch << '\n'
     << "records: " << stats.records << '\n'
     << "sealed_pending: " << stats.sealed_pending << '\n'
     << "offered: " << stats.stream.offered << '\n'
     << "accepted: " << stats.stream.accepted << '\n'
     << "released: " << stats.stream.released << '\n'
     << "quarantined_invalid: " << stats.stream.quarantined_invalid << '\n'
     << "quarantined_late: " << stats.stream.quarantined_late << '\n'
     << "rejected_duplicates: " << stats.stream.rejected_duplicates << '\n'
     << "quarantine_dropped: " << stats.stream.quarantine_dropped << '\n'
     << "bad_rows: " << stats.bad_rows << '\n'
     << "alerts_fired: " << stats.alerts_fired << '\n'
     << "alerts_cleared: " << stats.alerts_cleared << '\n'
     << "staleness_seconds: " << stats.staleness_seconds << '\n';
  return std::move(os).str();
}

std::string render_keys() {
  std::ostringstream os;
  for (const auto& key : FleetService::keys())
    os << key.key << " - " << key.summary << '\n';
  return std::move(os).str();
}

std::string render_tenants(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    out += name;
    out += '\n';
  }
  return out;
}

std::string render_alerts(const std::vector<stream::Alert>& alerts) {
  std::string out;
  for (const auto& alert : alerts) {
    out += stream::format_alert(alert);
    out += '\n';
  }
  return out;
}

void http_response(std::string& out, int status, std::string_view reason,
                   std::string_view body) {
  out += "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
}

}  // namespace

bool Connection::feed(std::string_view bytes, std::string& out) {
  if (close_) return false;
  std::size_t pos = 0;
  while (pos < bytes.size() && !close_) {
    const std::size_t newline = bytes.find('\n', pos);
    std::string_view chunk =
        bytes.substr(pos, newline == std::string_view::npos ? newline : newline - pos);
    const bool complete = newline != std::string_view::npos;
    pos = complete ? newline + 1 : bytes.size();

    if (discarding_) {
      if (complete) discarding_ = false;  // oversized line finally ended
      continue;
    }
    if (buffer_.size() + chunk.size() > config_.max_line_bytes) {
      err(out, "line exceeds " + std::to_string(config_.max_line_bytes) +
                   " bytes; discarded");
      buffer_.clear();
      discarding_ = !complete;
      continue;
    }
    if (!complete) {
      buffer_.append(chunk);  // partial write: wait for the rest
      continue;
    }
    if (buffer_.empty()) {
      handle_line(chunk, out);
    } else {
      buffer_.append(chunk);
      std::string line = std::move(buffer_);
      buffer_.clear();
      handle_line(line, out);
    }
  }
  return !close_;
}

void Connection::handle_line(std::string_view line, std::string& out) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  if (!saw_input_) {
    saw_input_ = true;
    if (line.substr(0, 4) == "GET ") {
      http_ = true;
      std::string_view rest = line.substr(4);
      std::size_t space = rest.find(' ');
      http_path_ = std::string(rest.substr(0, space));
      return;  // headers follow; the blank line triggers the response
    }
  }
  if (http_) {
    if (line.empty()) {
      handle_http_request(http_path_, out);
      close_ = true;
    }
    return;  // ignore request headers
  }
  if (line.empty()) return;
  handle_command(line, out);
}

void Connection::handle_command(std::string_view line, std::string& out) {
  std::string_view rest = line;
  std::string_view command = take_token(rest);

  if (command == "PING") {
    out += "OK pong\n";
  } else if (command == "QUIT") {
    out += "OK bye\n";
    close_ = true;
  } else if (command == "OPEN") {
    std::string tenant(take_token(rest));
    std::string_view machine_name = take_token(rest);
    if (tenant.empty() || machine_name.empty()) {
      err(out, "usage: OPEN <tenant> <machine>");
      return;
    }
    auto machine = data::parse_machine(machine_name);
    if (!machine.ok()) {
      err(out, machine.error());
      return;
    }
    const data::MachineSpec& spec = data::spec_for(machine.value());
    if (auto opened = service_->open_tenant(tenant, spec); !opened.ok()) {
      err(out, opened.error());
      return;
    }
    out += "OK tenant " + tenant + " machine " + std::string(data::to_string(spec.machine)) +
           "\n";
  } else if (command == "EVENT") {
    std::string tenant(take_token(rest));
    if (tenant.empty() || rest.empty()) {
      err(out, "usage: EVENT <tenant> <csv-row>");
      return;
    }
    auto outcome = service_->ingest_row(tenant, rest);
    if (!outcome.ok()) err(out, outcome.error());
    // Accepted/quarantined rows are silent: replay is not chatty, and
    // stream-level quarantines are visible through STATS.
  } else if (command == "SEAL") {
    std::string tenant(take_token(rest));
    if (tenant.empty()) {
      err(out, "usage: SEAL <tenant>");
      return;
    }
    auto epoch = service_->seal(tenant);
    if (!epoch.ok()) {
      err(out, epoch.error());
      return;
    }
    out += "OK epoch " + std::to_string(epoch.value()) + "\n";
  } else if (command == "QUERY") {
    std::string tenant(take_token(rest));
    std::string key(take_token(rest));
    if (tenant.empty() || key.empty()) {
      err(out, "usage: QUERY <tenant> <key>");
      return;
    }
    auto response = service_->query(tenant, key);
    if (!response.ok()) {
      err(out, response.error());
      return;
    }
    frame(out,
          "query " + tenant + " " + key + " epoch " + std::to_string(response.value().epoch) +
              " cached " + (response.value().cached ? "1" : "0"),
          response.value().text);
  } else if (command == "STATS") {
    std::string tenant(take_token(rest));
    if (tenant.empty()) {
      err(out, "usage: STATS <tenant>");
      return;
    }
    auto stats = service_->tenant_stats(tenant);
    if (!stats.ok()) {
      err(out, stats.error());
      return;
    }
    frame(out, "stats " + tenant, render_stats(tenant, stats.value()));
  } else if (command == "ALERTS") {
    std::string tenant(take_token(rest));
    if (tenant.empty()) {
      err(out, "usage: ALERTS <tenant>");
      return;
    }
    auto alerts = service_->recent_alerts(tenant);
    if (!alerts.ok()) {
      err(out, alerts.error());
      return;
    }
    frame(out, "alerts " + tenant, render_alerts(alerts.value()));
  } else if (command == "TENANTS") {
    frame(out, "tenants", render_tenants(service_->tenant_names()));
  } else if (command == "KEYS") {
    frame(out, "keys", render_keys());
  } else if (command == "METRICS") {
    frame(out, "metrics", FleetService::metrics_text());
  } else if (command == "SLO") {
    if (!rest.empty()) {
      err(out, "usage: SLO (no arguments)");
      return;
    }
    frame(out, "slo", service_->slo_text());
  } else {
    err(out, "unknown command '" + std::string(command) + "'");
  }
}

void Connection::handle_http_request(std::string_view path, std::string& out) {
  auto segment = [&](std::string_view prefix) -> std::string_view {
    return path.substr(prefix.size());
  };
  if (path == "/metrics") {
    http_response(out, 200, "OK", FleetService::metrics_text());
    return;
  }
  if (path == "/tenants") {
    http_response(out, 200, "OK", render_tenants(service_->tenant_names()));
    return;
  }
  if (path == "/slo") {
    http_response(out, 200, "OK", service_->slo_text());
    return;
  }
  if (path == "/healthz") {
    // Burning objectives flip the status code so dumb probes (curl -f,
    // load balancers) see unhealthy without parsing the body.
    const bool burning = service_->health_state() == obs::SloState::kBurning;
    http_response(out, burning ? 503 : 200, burning ? "Service Unavailable" : "OK",
                  service_->healthz_text());
    return;
  }
  if (path.rfind("/stats/", 0) == 0) {
    std::string tenant(segment("/stats/"));
    auto stats = service_->tenant_stats(tenant);
    if (!stats.ok()) {
      http_response(out, 404, "Not Found", stats.error().to_string() + "\n");
      return;
    }
    http_response(out, 200, "OK", render_stats(tenant, stats.value()));
    return;
  }
  if (path.rfind("/query/", 0) == 0) {
    std::string_view rest = segment("/query/");
    std::size_t slash = rest.find('/');
    if (slash == std::string_view::npos) {
      http_response(out, 404, "Not Found", "expected /query/<tenant>/<key>\n");
      return;
    }
    std::string tenant(rest.substr(0, slash));
    std::string key(rest.substr(slash + 1));
    auto response = service_->query(tenant, key);
    if (!response.ok()) {
      http_response(out, 404, "Not Found", response.error().to_string() + "\n");
      return;
    }
    http_response(out, 200, "OK", response.value().text);
    return;
  }
  http_response(out, 404, "Not Found",
                "routes: /metrics /slo /healthz /tenants /stats/<tenant> "
                "/query/<tenant>/<key>\n");
}

}  // namespace tsufail::serve
