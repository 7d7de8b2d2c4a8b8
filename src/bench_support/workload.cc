#include "bench_support/workload.h"

#include <cstdio>
#include <cstdlib>

#include "datagen/milan_like.h"
#include "datagen/tpcds_like.h"
#include "sketch/moment_sketch.h"

namespace sudaf::bench {

WorkloadOptions WorkloadOptions::FromEnv() {
  WorkloadOptions options;
  const char* scale_env = std::getenv("SUDAF_SCALE");
  double scale = 1.0;
  if (scale_env != nullptr) {
    double parsed = std::atof(scale_env);
    if (parsed > 0.0) scale = parsed;
  }
  options.milan_rows = static_cast<int64_t>(options.milan_rows * scale);
  options.sales_rows = static_cast<int64_t>(options.sales_rows * scale);
  return options;
}

Status SetupWorkloadData(const WorkloadOptions& options, Catalog* catalog) {
  MilanOptions milan;
  milan.num_rows = options.milan_rows;
  catalog->PutTable("milan_data", GenerateMilanData(milan));
  TpcdsOptions tpcds;
  tpcds.num_sales = options.sales_rows;
  return GenerateTpcdsData(tpcds, catalog);
}

Status RegisterQuantileUdafs(SudafSession* session, int k) {
  SUDAF_RETURN_IF_ERROR(session->library().DefineNative(
      MakeApproxQuantileUdaf("approx_median", 0.5, k)));
  SUDAF_RETURN_IF_ERROR(session->library().DefineNative(
      MakeApproxQuantileUdaf("approx_first_quantile", 0.25, k)));
  SUDAF_RETURN_IF_ERROR(session->library().DefineNative(
      MakeApproxQuantileUdaf("approx_third_quantile", 0.75, k)));
  // Engine-native counterparts for the baseline context.
  RegisterHardcodedQuantileUdafs(&session->hardcoded(), k);
  return Status::OK();
}

std::string QueryModel1(const std::string& agg_name) {
  return "SELECT " + agg_name + "(internet_traffic) FROM milan_data;";
}

std::string QueryModel2(const std::string& agg_name) {
  return "SELECT square_id, " + agg_name +
         "(internet_traffic) FROM milan_data GROUP BY square_id "
         "ORDER BY square_id LIMIT 20;";
}

std::string QueryModel3(const std::string& agg_name) {
  return "SELECT i_item_id, " + agg_name + "(ss_quantity) agg1, " + agg_name +
         "(ss_list_price) agg2, " + agg_name + "(ss_coupon_amt) agg3, " +
         agg_name +
         "(ss_sales_price) agg4 "
         "FROM store_sales, customer_demographics, date_dim, item, promotion "
         "WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk and "
         "ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and "
         "cd_gender = 'M' and cd_marital_status = 'S' and "
         "cd_education_status = 'College' and "
         "(p_channel_email = 'N' or p_channel_event = 'N') and "
         "d_year = 2000 "
         "GROUP BY i_item_id ORDER BY i_item_id LIMIT 100;";
}

std::string QueryModel(int model, const std::string& agg_name) {
  switch (model) {
    case 1:
      return QueryModel1(agg_name);
    case 2:
      return QueryModel2(agg_name);
    default:
      return QueryModel3(agg_name);
  }
}

std::vector<std::string> SequenceAS1() {
  return {"cm",  "qm",    "gm",  "hm",  "min", "max",
          "count", "stddev", "var", "sum", "avg"};
}

std::vector<std::string> SequenceAS2() {
  return {"max", "min", "sum", "avg", "count", "stddev",
          "var", "cm",  "gm",  "hm",  "qm"};
}

std::vector<std::string> Figure10Aggregates() {
  return {"min",      "max",      "sum",        "avg",
          "hm",       "qm",       "cm",         "gm",
          "stddev",   "var",      "skewness",   "kurtosis",
          "approx_median", "count", "approx_first_quantile",
          "approx_third_quantile"};
}

namespace {

// Builds the select list that materializes the moments-sketch states.
// Aliases keep output column names unique across aggregated columns.
std::string SketchSelectList(const std::vector<std::string>& columns, int k) {
  std::string list;
  for (const std::string& column : columns) {
    int index = 0;
    for (const std::string& e : MomentSketchStateExprs(column, k)) {
      if (!list.empty()) list += ", ";
      list += e + " ms_" + column + "_" + std::to_string(index++);
    }
  }
  return list;
}

}  // namespace

std::string MomentSketchPrefetchSql(int model, int k) {
  switch (model) {
    case 1:
      return "SELECT " + SketchSelectList({"internet_traffic"}, k) +
             " FROM milan_data;";
    case 2:
      return "SELECT square_id, " + SketchSelectList({"internet_traffic"}, k) +
             " FROM milan_data GROUP BY square_id;";
    default:
      return "SELECT i_item_id, " +
             SketchSelectList({"ss_quantity", "ss_list_price",
                               "ss_coupon_amt", "ss_sales_price"},
                              k) +
             " FROM store_sales, customer_demographics, date_dim, item, "
             "promotion "
             "WHERE ss_sold_date_sk = d_date_sk and ss_item_sk = i_item_sk "
             "and ss_cdemo_sk = cd_demo_sk and ss_promo_sk = p_promo_sk and "
             "cd_gender = 'M' and cd_marital_status = 'S' and "
             "cd_education_status = 'College' and "
             "(p_channel_email = 'N' or p_channel_event = 'N') and "
             "d_year = 2000 "
             "GROUP BY i_item_id;";
  }
}

std::vector<double> RunSequence(SudafSession* session, int model,
                                const std::vector<std::string>& aggs,
                                ExecMode mode) {
  std::vector<double> times;
  times.reserve(aggs.size());
  for (const std::string& agg : aggs) {
    std::string sql = QueryModel(model, agg);
    Result<QueryResult> result = session->Execute(sql, mode);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed (%s): %s\n", sql.c_str(),
                   result.status().ToString().c_str());
      times.push_back(-1.0);
      continue;
    }
    times.push_back(result->stats.total_ms);
  }
  return times;
}

}  // namespace sudaf::bench
