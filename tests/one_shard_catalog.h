#ifndef NIMBUS_TESTS_ONE_SHARD_CATALOG_H_
#define NIMBUS_TESTS_ONE_SHARD_CATALOG_H_

#include <unistd.h>

#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "market/catalog.h"
#include "market/marketplace.h"
#include "market/shard.h"

namespace nimbus::testutil {

// One marketplace served the way MarketService serves every marketplace:
// as the only shard ("solo") of a catalog rooted in a fresh temporary
// directory. The shard opens with a fresh journal at
// shard().journal_path(). Declare it before the service that uses it, so
// the service drains first.
class OneShardCatalog {
 public:
  explicit OneShardCatalog(market::MarketplaceFactory factory,
                           market::ShardOptions shard_defaults = {}) {
    static int counter = 0;
    market::CatalogOptions options;
    options.root_dir = ::testing::TempDir() + "/one_shard_" +
                       std::to_string(counter++) + "_" +
                       std::to_string(static_cast<long>(::getpid()));
    options.shard_defaults = std::move(shard_defaults);
    catalog_ = std::make_unique<market::Catalog>(options);
    const Status status = catalog_->AddProduct("solo", std::move(factory));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  market::Catalog* catalog() { return catalog_.get(); }
  market::Shard& shard() { return *catalog_->shard(0); }
  // The shard's live marketplace. Read its ledger only while no service
  // is committing (after the request futures resolved, or after Drain).
  market::Marketplace& market() { return *shard().market(); }

 private:
  std::unique_ptr<market::Catalog> catalog_;
};

}  // namespace nimbus::testutil

#endif  // NIMBUS_TESTS_ONE_SHARD_CATALOG_H_
