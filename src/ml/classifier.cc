#include "src/ml/classifier.h"

#include <stdexcept>

#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"

namespace rc::ml {

std::vector<uint8_t> Classifier::SerializeTagged() const {
  ByteWriter w;
  w.String(type_name());
  Serialize(w);
  return w.TakeBytes();
}

std::unique_ptr<Classifier> Classifier::DeserializeTagged(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  std::string tag = r.String();
  if (tag == "random_forest") {
    return std::make_unique<RandomForest>(RandomForest::Deserialize(r));
  }
  if (tag == "gbt") {
    return std::make_unique<GradientBoostedTrees>(GradientBoostedTrees::Deserialize(r));
  }
  throw std::runtime_error("Classifier::DeserializeTagged: unknown type " + tag);
}

}  // namespace rc::ml
