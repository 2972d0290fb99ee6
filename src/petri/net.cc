#include "petri/net.h"

#include <utility>

#include "simcore/check.h"

namespace elastic::petri {

void Binding::Bind(std::string_view name, double value) {
  ELASTIC_CHECK(size_ < kMaxVars, "binding holds at most kMaxVars variables");
  names_[static_cast<size_t>(size_)] = name;
  values_[static_cast<size_t>(size_)] = value;
  size_++;
}

void Binding::Unbound() {
  ELASTIC_CHECK(false, "unbound variable in guard/expression");
}

PlaceId Net::AddPlace(std::string name) {
  for (const Place& p : places_) {
    ELASTIC_CHECK(p.name != name, "duplicate place name");
  }
  places_.push_back(Place{std::move(name), {}});
  return static_cast<PlaceId>(places_.size() - 1);
}

TransitionId Net::AddTransition(std::string name, Guard guard) {
  transitions_.push_back(Transition{std::move(name), std::move(guard), {}, {}});
  return static_cast<TransitionId>(transitions_.size() - 1);
}

void Net::AddInputArc(PlaceId place, TransitionId transition, std::string var) {
  ELASTIC_CHECK(place >= 0 && place < num_places(), "bad place id");
  ELASTIC_CHECK(transition >= 0 && transition < num_transitions(), "bad transition id");
  std::vector<InputArc>& inputs = transitions_[transition].inputs;
  ELASTIC_CHECK(static_cast<int>(inputs.size()) < Binding::kMaxVars,
                "input arcs of one transition exceed Binding::kMaxVars");
  inputs.push_back(InputArc{place, std::move(var)});
}

void Net::AddOutputArc(TransitionId transition, PlaceId place, Expr expr) {
  ELASTIC_CHECK(place >= 0 && place < num_places(), "bad place id");
  ELASTIC_CHECK(transition >= 0 && transition < num_transitions(), "bad transition id");
  ELASTIC_CHECK(expr != nullptr, "output arc needs an expression");
  transitions_[transition].outputs.push_back(OutputArc{place, std::move(expr)});
}

void Net::AddToken(PlaceId place, double value) {
  ELASTIC_CHECK(place >= 0 && place < num_places(), "bad place id");
  places_[place].tokens.push_back(value);
}

void Net::ClearPlace(PlaceId place) {
  ELASTIC_CHECK(place >= 0 && place < num_places(), "bad place id");
  places_[place].tokens.clear();
}

void Net::SetSingleToken(PlaceId place, double value) {
  ClearPlace(place);
  AddToken(place, value);
}

const std::vector<double>& Net::Marking(PlaceId place) const {
  ELASTIC_CHECK(place >= 0 && place < num_places(), "bad place id");
  return places_[place].tokens;
}

int64_t Net::TotalTokens() const {
  int64_t total = 0;
  for (const Place& p : places_) total += static_cast<int64_t>(p.tokens.size());
  return total;
}

bool Net::Enabled(const Transition& t, Binding& binding) const {
  for (const InputArc& arc : t.inputs) {
    const Place& place = places_[arc.place];
    if (place.tokens.empty()) return false;
    binding.Bind(arc.var, place.tokens.front());
  }
  return !t.guard || t.guard(binding);
}

void Net::FireBound(const Transition& t, const Binding& binding) {
  // Consume one token per input arc.
  for (const InputArc& arc : t.inputs) {
    std::vector<double>& tokens = places_[arc.place].tokens;
    tokens.erase(tokens.begin());
  }
  // Produce output tokens from the binding captured before consumption.
  for (const OutputArc& arc : t.outputs) {
    places_[arc.place].tokens.push_back(arc.expr(binding));
  }
}

bool Net::IsEnabled(TransitionId transition) const {
  ELASTIC_CHECK(transition >= 0 && transition < num_transitions(), "bad transition id");
  Binding binding;
  return Enabled(transitions_[transition], binding);
}

bool Net::Fire(TransitionId transition) {
  ELASTIC_CHECK(transition >= 0 && transition < num_transitions(), "bad transition id");
  const Transition& t = transitions_[transition];
  Binding binding;
  if (!Enabled(t, binding)) return false;
  FireBound(t, binding);
  return true;
}

std::optional<TransitionId> Net::StepOnce() {
  Binding binding;
  for (TransitionId t = 0; t < num_transitions(); ++t) {
    binding.Reset();
    if (Enabled(transitions_[t], binding)) {
      FireBound(transitions_[t], binding);
      return t;
    }
  }
  return std::nullopt;
}

std::vector<TransitionId> Net::RunToQuiescence(int max_steps) {
  std::vector<TransitionId> fired;
  for (int i = 0; i < max_steps; ++i) {
    const std::optional<TransitionId> t = StepOnce();
    if (!t.has_value()) break;
    fired.push_back(*t);
  }
  return fired;
}

const std::string& Net::PlaceName(PlaceId place) const {
  ELASTIC_CHECK(place >= 0 && place < num_places(), "bad place id");
  return places_[place].name;
}

const std::string& Net::TransitionName(TransitionId transition) const {
  ELASTIC_CHECK(transition >= 0 && transition < num_transitions(), "bad transition id");
  return transitions_[transition].name;
}

PlaceId Net::FindPlace(const std::string& name) const {
  for (PlaceId p = 0; p < num_places(); ++p) {
    if (places_[p].name == name) return p;
  }
  ELASTIC_CHECK(false, "unknown place name");
  return -1;
}

std::vector<std::vector<int>> Net::PreMatrix() const {
  std::vector<std::vector<int>> pre(
      static_cast<size_t>(num_places()),
      std::vector<int>(static_cast<size_t>(num_transitions()), 0));
  for (TransitionId t = 0; t < num_transitions(); ++t) {
    for (const InputArc& arc : transitions_[t].inputs) {
      pre[static_cast<size_t>(arc.place)][static_cast<size_t>(t)]++;
    }
  }
  return pre;
}

std::vector<std::vector<int>> Net::PostMatrix() const {
  std::vector<std::vector<int>> post(
      static_cast<size_t>(num_places()),
      std::vector<int>(static_cast<size_t>(num_transitions()), 0));
  for (TransitionId t = 0; t < num_transitions(); ++t) {
    for (const OutputArc& arc : transitions_[t].outputs) {
      post[static_cast<size_t>(arc.place)][static_cast<size_t>(t)]++;
    }
  }
  return post;
}

std::vector<std::vector<int>> Net::IncidenceMatrix() const {
  std::vector<std::vector<int>> pre = PreMatrix();
  const std::vector<std::vector<int>> post = PostMatrix();
  for (size_t p = 0; p < pre.size(); ++p) {
    for (size_t t = 0; t < pre[p].size(); ++t) {
      pre[p][t] = post[p][t] - pre[p][t];
    }
  }
  return pre;
}

}  // namespace elastic::petri
